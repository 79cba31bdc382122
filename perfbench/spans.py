"""Span recording around the public entry points of each layer.

The traced run installs wrappers from here; nothing inside ``src/``
changes.  Each call of a wrapped function becomes one span: its name,
start, end, the span that was open on the same thread when it began
(its parent), and the query id when the call carries one.  Spans stay
in memory, in one compact column buffer per thread, until the run ends.

A span's *self time* is its duration minus the part its child spans
cover.  Spans on one thread nest strictly, so that part is the sum of
the children's durations.
"""

from __future__ import annotations

import gzip
import threading
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.net.asyncio_cluster as asyncio_cluster
import repro.net.common as net_common
from repro.engine.local import QueryExecution
from repro.replication import ReplicationManager
from repro.server.node import ServerNode
from repro.storage.memstore import MemStore


class _Buffer:
    """The spans of one thread, as columns."""

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.qid = array("i")
        self.stack: List[int] = []

    def open(self, code: int, now: float) -> int:
        i = len(self.start)
        self.name.append(code)
        self.start.append(now)
        self.end.append(now)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.qid.append(-1)
        self.stack.append(i)
        return i

    def close(self, i: int, now: float) -> None:
        self.end[i] = now
        self.stack.pop()


def _payload_qid(env: Any) -> Any:
    return getattr(getattr(env, "payload", None), "qid", None)


class SpanRecorder:
    """Wraps the layer entry points and keeps their spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}
        self._qids: Dict[Any, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer(len(self._buffers))
            self._buffers.append(buf)
        return buf

    def _qid_code(self, qid: Any) -> int:
        if qid is None or isinstance(qid, str):
            return -1
        return self._qids.setdefault(qid, len(self._qids))

    def wrap(
        self,
        name: str,
        fn: Callable,
        qid_of_args: Optional[Callable[[tuple], Any]] = None,
        qid_of_result: Optional[Callable[[Any], Any]] = None,
    ) -> Callable:
        code = self._codes.setdefault(name, len(self._codes))
        if code == len(self.names):
            self.names.append(name)
        recorder = self

        def wrapper(*args, **kwargs):
            buf = recorder._buffer()
            i = buf.open(code, perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.close(i, perf_counter())
            if qid_of_args is not None:
                buf.qid[i] = recorder._qid_code(qid_of_args(args))
            elif qid_of_result is not None:
                buf.qid[i] = recorder._qid_code(qid_of_result(result))
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer's entry point; :meth:`uninstall` undoes it."""
        # core: where net.common compiles each submitted query.
        self._patch(net_common, "compile_query_like", self.wrap("core.compile", net_common.compile_query_like))
        # server: message intake, one unit of work, and the idle test.
        self._patch(
            ServerNode, "on_message",
            self.wrap("server.on_message", ServerNode.on_message, qid_of_args=lambda a: _payload_qid(a[1])),
        )
        self._patch(ServerNode, "step", self.wrap("server.step", ServerNode.step))
        has_work = ServerNode.__dict__["has_work"]
        self._patch(ServerNode, "has_work", property(self.wrap("server.has_work", has_work.fget)))
        # engine: one work item through the filters.
        self._patch(QueryExecution, "step", self.wrap("engine.step", QueryExecution.step))
        # net: the codec, where the asyncio transport calls it.
        self._patch(
            asyncio_cluster, "encode_envelope",
            self.wrap("net.encode", asyncio_cluster.encode_envelope, qid_of_args=lambda a: _payload_qid(a[0])),
        )
        self._patch(
            asyncio_cluster, "decode_envelope",
            self.wrap("net.decode", asyncio_cluster.decode_envelope, qid_of_result=_payload_qid),
        )
        # replication and storage: the write path.
        self._patch(ReplicationManager, "apply", self.wrap("replication.apply", ReplicationManager.apply))
        self._patch(MemStore, "replace", self.wrap("storage.replace", MemStore.replace))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, total ``duration`` and ``self`` seconds."""
        out = {name: {"count": 0, "duration": 0.0, "self": 0.0} for name in self.names}
        for buf in self._buffers:
            n = len(buf.start)
            durations = [buf.end[i] - buf.start[i] for i in range(n)]
            covered = [0.0] * n
            for i in range(n):
                p = buf.parent[i]
                if p >= 0:
                    covered[p] += durations[i]
            for i in range(n):
                entry = out[self.names[buf.name[i]]]
                entry["count"] += 1
                entry["duration"] += durations[i]
                entry["self"] += durations[i] - covered[i]
        return out

    @property
    def span_count(self) -> int:
        return sum(len(buf.start) for buf in self._buffers)

    def write(self, path, origin: float) -> None:
        """All spans as gzipped TSV, times in seconds since ``origin``.

        Columns: thread, span, parent (-1: none), name, start, end, qid
        (``q<seq>@<originator>``, empty when the call carries none).
        """
        qid_names = {code: str(q) for q, code in self._qids.items()}
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("thread\tspan\tparent\tname\tstart_s\tend_s\tqid\n")
            for buf in self._buffers:
                for i in range(len(buf.start)):
                    f.write(
                        f"{buf.thread}\t{i}\t{buf.parent[i]}\t{self.names[buf.name[i]]}\t"
                        f"{buf.start[i] - origin:.7f}\t{buf.end[i] - origin:.7f}\t"
                        f"{qid_names.get(buf.qid[i], '')}\n"
                    )
