"""The asyncio HTTP/JSON server over temporal relations.

A thin, stdlib-only network layer: hand-rolled HTTP/1.1 over asyncio
streams (:mod:`repro.server.http`), JSON request/response schemas with
a canonical element codec (:mod:`repro.server.protocol`), and the
single-writer / pinned-reader application core
(:mod:`repro.server.app`).  Start one with::

    from repro.server import ServerConfig, TemporalServer

    server = TemporalServer(ServerConfig(port=8787))
    asyncio.run(server.serve_forever())

or from the command line: ``repro serve --port 8787``.
"""

from repro.server.app import ServerConfig, TemporalServer
from repro.server.client import ClientResponse, ServerClient

__all__ = ["ServerConfig", "TemporalServer", "ServerClient", "ClientResponse"]
