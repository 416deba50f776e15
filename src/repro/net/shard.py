"""`ShardServer`: one shard of a sharded query served over TCP.

This is the multi-machine half of :class:`~repro.runtime.ShardedEngine`.
A shard server owns a :class:`~repro.runtime.worker.ShardRunner` — a
full stream engine compiled on the shard-local plan segment — and
serves it with the same :func:`~repro.runtime.worker.serve_shard` loop
a forked worker runs over its end of a socketpair; only the socket
differs.  A coordinator started with
``ShardedEngine(remote_shards=["host:port", ...])`` connects here,
sends a ``SHARD_ATTACH`` announcing which shard slot this runner fills,
and then streams the same chunk/flush/stats frames it sends a forked
worker.

**Plan distribution.**  Logical plans carry closures (predicates,
derive functions, group keys) that do not serialize, so the plan
travels by *code*, not by wire: the shard host constructs the same
query — the same CQL text with the same UDFs, or the same builder
pipeline — and the server derives the shard-local segment with the
same partition-aware planner pass the coordinator uses
(:func:`repro.plan.sharding.split_for_sharding`).  Running the same
script on every machine (the standard same-binary deployment) satisfies
this by construction; :func:`spawn_shard_server` does it locally by
forking, which the tests and benchmarks use as a stand-in for a second
machine.

One coordinator is served at a time; each attach builds a fresh runner,
so a reconnecting coordinator starts from clean shard state (exactly
like a freshly forked worker).
"""

from __future__ import annotations

import multiprocessing
import socket
import threading
import traceback
from typing import Optional, Union

from repro.plan.builder import Stream
from repro.plan.nodes import LogicalPlan, PlanError
from repro.plan.planner import Planner
from repro.plan.sharding import split_for_sharding
from repro.runtime.worker import ShardRunner, plan_signature, serve_shard

from . import protocol
from .errors import ConnectionClosed, ProtocolError
from .framing import DEFAULT_MAX_PAYLOAD, recv_frame, send_frame

__all__ = ["ShardServer", "spawn_shard_server"]

#: Accept-loop tick, so ``close()`` is noticed promptly.
_ACCEPT_TICK = 0.2


class ShardServer:
    """Serve the shard-local segment of one query over TCP (see module docs).

    Parameters
    ----------
    query:
        The *full* query — a :class:`~repro.plan.Stream`, a
        single-output :class:`~repro.plan.LogicalPlan`, or CQL text
        (requires ``sources``/``functions`` for schema and UDFs).  The
        server derives the shard-local segment itself, exactly as the
        coordinator does.
    host / port:
        Bind address; port ``0`` picks a free port (see
        :attr:`address`).
    optimize:
        Apply the planner rewrites before splitting; must match the
        coordinator's setting so both sides split the same plan.
    """

    def __init__(
        self,
        query: Union[Stream, LogicalPlan, str],
        host: str = "127.0.0.1",
        port: int = 0,
        planner: Optional[Planner] = None,
        optimize: bool = True,
        sources=None,
        functions=None,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
    ):
        if isinstance(query, str):
            from repro.cql.lowering import lower_query

            plan = lower_query(query, sources=sources or {}, functions=functions or {})
        elif isinstance(query, Stream):
            plan = query.plan()
        elif isinstance(query, LogicalPlan):
            plan = query
            plan.validate()
        else:
            raise PlanError(
                f"ShardServer takes a Stream, LogicalPlan or CQL text, "
                f"got {type(query).__name__}"
            )
        planner = planner or Planner()
        if optimize:
            plan, _ = planner.optimize(plan)
            plan.validate()
        decision = split_for_sharding(plan, planner.cost_model)
        if not decision.shardable:
            raise PlanError(
                f"this query cannot run as a remote shard: {decision.reason}"
            )
        self.local_plan = decision.local
        self._max_payload = max_payload
        self._closed = False
        self._active_conn: Optional[socket.socket] = None
        self.served_coordinators = 0

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(4)
        self._listener.settimeout(_ACCEPT_TICK)
        bound_host, bound_port = self._listener.getsockname()[:2]
        self.address = f"{bound_host}:{bound_port}"

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept coordinators one at a time until :meth:`close`."""
        while not self._closed:
            self.serve_once()

    def serve_once(self) -> bool:
        """Serve one coordinator connection to completion.

        Returns True when a coordinator was actually served, False when
        the accept timed out (so callers can poll a stop flag).
        """
        try:
            conn, _ = self._listener.accept()
        except socket.timeout:
            return False
        except OSError:
            return False  # listener closed under us
        with conn:
            self._active_conn = conn
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn.settimeout(None)
            try:
                self._serve_connection(conn)
            except (ConnectionClosed, ConnectionError, OSError):
                pass  # coordinator went away (or close() cut the link)
            except ProtocolError as exc:
                self._try_send_error(conn, -1, f"protocol error: {exc}")
            finally:
                self._active_conn = None
        self.served_coordinators += 1
        return True

    def _serve_connection(self, conn: socket.socket) -> None:
        kind, header, _ = recv_frame(conn, self._max_payload)
        if kind != protocol.SHARD_ATTACH:
            raise ProtocolError(
                f"expected SHARD_ATTACH, got {protocol.kind_name(kind)}"
            )
        shard_id = header.get("shard")
        offered = header.get("signature")
        if type(shard_id) is not int or shard_id < 0:
            raise ProtocolError(
                f"SHARD_ATTACH needs an integer 'shard' >= 0, got {shard_id!r}"
            )
        if offered is not None and not isinstance(offered, list):
            raise ProtocolError(
                f"SHARD_ATTACH 'signature' must be a list, got {offered!r}"
            )
        expected = plan_signature(self.local_plan)
        if offered is not None and offered != expected:
            # A coordinator for a *different* query (or different
            # planner settings) must fail the attach, not silently
            # merge partials computed by the wrong plan.
            self._try_send_error(
                conn,
                shard_id,
                "shard plan mismatch:\n"
                f"  coordinator splits: {offered}\n"
                f"  this server hosts:  {expected}",
            )
            return
        try:
            runner = ShardRunner(shard_id, self.local_plan)
        except Exception:
            self._try_send_error(conn, shard_id, traceback.format_exc())
            return
        send_frame(conn, protocol.OK, {"shard": shard_id})
        try:
            serve_shard(runner, conn, self._max_payload)
        except (ConnectionClosed, ConnectionError):
            raise
        except BaseException:
            self._try_send_error(conn, shard_id, traceback.format_exc())

    @staticmethod
    def _try_send_error(conn: socket.socket, shard_id: int, trace: str) -> None:
        try:
            conn.sendall(protocol.encode_worker_message(("error", shard_id, trace)))
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop accepting, cut any active coordinator, release the socket."""
        if self._closed:
            return
        self._closed = True
        self._listener.close()
        active = self._active_conn
        if active is not None:
            try:
                active.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def start_in_thread(self) -> ShardServer:
        """Serve on a daemon thread; :meth:`close` stops it."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-shard-server", daemon=True
        )
        thread.start()
        self._thread = thread
        return self

    def __enter__(self) -> ShardServer:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def spawn_shard_server(
    query: Union[Stream, LogicalPlan],
    host: str = "127.0.0.1",
    port: int = 0,
    optimize: bool = True,
):
    """Fork a :class:`ShardServer` into its own process; returns (process, address).

    The fork start method carries the query — closures included — into
    the child by address-space inheritance, making this a faithful
    local stand-in for a shard host that constructed the same query
    from code.  The parent keeps only the address; terminate the
    process to stop the server.
    """
    server = ShardServer(
        query, host=host, port=port, optimize=optimize
    )
    context = multiprocessing.get_context("fork")
    process = context.Process(
        target=server.serve_forever, daemon=True, name="repro-shard-server"
    )
    process.start()
    # The child inherited the listening socket; the parent's copy is
    # only a handle now and must not steal connections.
    server._listener.close()
    return process, server.address
