"""In-memory span tracing of the program's public functions, from outside.

`Tracer.install()` replaces each target function with a wrapper that
records one span per call: its name, its parent span (the innermost traced
call still running) and its start and end times. Spans stay in compact
arrays until the run ends; `summary()` then derives each function's call
count and self time (duration minus the time its child spans cover).
Modules that import a target by name get the wrapper on that name too, so
a call through either route is recorded. `uninstall()` restores every
original.
"""

from __future__ import annotations

import sys
import time
from array import array
from typing import Callable, Optional

# (module, attribute path, span name). The span name's first part is the layer.
TARGETS = [
    ("btcstate.chain", "BlockHeader.hash", "chain.header_hash"),
    ("btcstate.chain", "Transaction.txid", "chain.txid"),
    ("btcstate.chain", "script_address", "chain.script_address"),
    ("btcstate.blocktree", "BlockTree.add_header", "blocktree.add_header"),
    ("btcstate.blocktree", "BlockTree.depth", "blocktree.depth"),
    ("btcstate.blocktree", "BlockTree.current_chain", "blocktree.current_chain"),
    ("btcstate.validation", "check_header", "validation.check_header"),
    ("btcstate.adapter", "Adapter.accept_header", "adapter.accept_header"),
    ("btcstate.adapter", "Adapter.store_block", "adapter.store_block"),
    ("btcstate.adapter", "Adapter.handle_request", "adapter.handle_request"),
    ("btcstate.adapter", "Adapter.on_peer_message", "adapter.on_peer_message"),
    ("btcstate.canister", "Canister.build_request", "canister.build_request"),
    ("btcstate.canister", "Canister.handle_response", "canister.handle_response"),
    ("btcstate.canister", "Canister.get_balance", "canister.get_balance"),
    ("btcstate.canister", "Canister.get_utxos", "canister.get_utxos"),
    ("btcstate.canister", "Canister.snapshot_lines", "canister.snapshot_lines"),
    ("btcstate.canister", "Canister.from_snapshot", "canister.from_snapshot"),
    ("btcstate.netsim", "SimWorld.step", "netsim.step"),
    ("btcstate.netsim", "SimWorld.add_block", "netsim.add_block"),
]

LAYERS = ("chain", "blocktree", "validation", "adapter", "canister", "netsim")


class Tracer:
    def __init__(self) -> None:
        self.names = [name for _, _, name in TARGETS]
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []
        # Called with each return value of the named target.
        self.on_return: dict[str, Callable[[object], None]] = {}

    def _wrap(self, name_id: int, fn: Callable, after: Optional[Callable[[object], None]]) -> Callable:
        span_name = self.span_name
        span_parent = self.span_parent
        span_start = self.span_start
        span_end = self.span_end
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(span_end)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_end.append(0.0)
            stack.append(i)
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                span_end[i] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("btcstate")]
        for name_id, (module_name, path, span) in enumerate(TARGETS):
            owner: object = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr]
            after = self.on_return.get(span)
            if isinstance(raw, classmethod):
                self._set(owner, attr, classmethod(self._wrap(name_id, raw.__func__, after)))
                continue
            wrapped = self._wrap(name_id, raw, after)
            self._set(owner, attr, wrapped)
            if not outer:  # a module function: rebind every by-name import of it
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw and module is not owner:
                            self._set(module, key, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _child_time(self) -> array:
        """Per span, the time covered by its direct children."""
        start, end, parent = self.span_start, self.span_end, self.span_parent
        child = array("d", bytes(8 * len(end)))
        for i in range(len(end)):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return child

    def summary(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds), for every target."""
        child = self._child_time()
        start, end, names = self.span_start, self.span_end, self.span_name
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        for i in range(len(end)):
            k = names[i]
            calls[k] += 1
            own[k] += end[i] - start[i] - child[i]
        return {name: (calls[k], own[k]) for k, name in enumerate(self.names)}

    def self_under(self, roots: tuple[str, ...]) -> float:
        """Self time of spans named in `roots` plus every span they called."""
        ids = {self.names.index(name) for name in roots}
        child = self._child_time()
        start, end, parent, names = self.span_start, self.span_end, self.span_parent, self.span_name
        under = bytearray(len(end))
        total = 0.0
        for i in range(len(end)):  # a parent's index is always below its children's
            p = parent[i]
            under[i] = names[i] in ids or (p >= 0 and under[p])
            if under[i]:
                total += end[i] - start[i] - child[i]
        return total
