"""The running daemon the load clients drive.

The load clients (``tests/query/load_clients.py``) never start the
daemon they drive, so every load test first starts one: a
:class:`~repro.query.server.QueryServer` on an ephemeral loopback port,
served by its selector loop on a background thread, and stopped at
teardown through the same graceful path as the in-band ``shutdown`` op.
"""

import io
import threading

import pytest

from repro.query import QueryEngine
from repro.query.server import QueryServer


@pytest.fixture()
def daemon():
    """``daemon(store, **server_kwargs) -> (server, (host, port))``.

    Each call starts one daemon over ``store`` (a store document) with
    the given :class:`QueryServer` arguments; every daemon the test
    started is shut down and joined when it ends.
    """
    started = []

    def start(store, **server_kwargs):
        server = QueryServer(QueryEngine(store), **server_kwargs)
        bound = {}
        ready = threading.Event()

        def on_ready(addr):
            bound["addr"] = addr
            ready.set()

        thread = threading.Thread(
            target=server.serve_tcp,
            kwargs=dict(host="127.0.0.1", port=0, ready_cb=on_ready,
                        log=io.StringIO()),
            daemon=True,
        )
        thread.start()
        assert ready.wait(10), "daemon never announced its address"
        started.append((server, thread))
        return server, bound["addr"]

    yield start
    for server, thread in started:
        server.request_shutdown()
        thread.join(10)
        assert not thread.is_alive()
