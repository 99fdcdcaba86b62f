"""Recursive-descent disassembly walker and CFG construction.

The walker starts from a set of *roots* (reset vector, trap stubs, app
entry points), decodes instructions with
:func:`repro.analysis.static.decode.decode_insn`, and follows every
statically-known control-flow edge: fallthrough, ``bra``/``jmp``,
conditional branches, ``bsr``/``jsr`` calls, and — when the caller
supplies a trap-to-stub mapping — A-line trap edges.  The result is a
:class:`CFG` of basic blocks with reachability and dominator
computation, which the diagnostics engine in
:mod:`repro.analysis.static.analyzer` walks for findings.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .decode import (Insn, K_BRANCH, K_CALL, K_CONDBRANCH, K_ILLEGAL,
                     K_RETURN, K_TRAP, decode_insn)


@dataclass
class BasicBlock:
    """A maximal straight-line run of instructions.

    ``succs`` holds intra-procedural successors (fallthrough and branch
    targets); ``calls`` holds statically-resolved ``jsr``/``bsr`` and
    trap-stub targets, which are control transfers that come back.
    """

    start: int
    insns: List[Insn] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    calls: List[int] = field(default_factory=list)
    #: True when the block ends in a jmp/jsr whose target is unknown.
    indirect_exit: bool = False

    @property
    def end(self) -> int:
        return self.insns[-1].end if self.insns else self.start

    @property
    def terminator(self) -> Optional[Insn]:
        return self.insns[-1] if self.insns else None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"BasicBlock({self.start:#x}..{self.end:#x}, "
                f"{len(self.insns)} insns, succs={[hex(s) for s in self.succs]})")


class CFG:
    """The control-flow graph a :func:`walk` produces."""

    def __init__(self, roots: Tuple[int, ...]):
        self.roots = roots
        self.blocks: Dict[int, BasicBlock] = {}
        self.insn_map: Dict[int, Insn] = {}
        #: jsr/bsr/trap targets — function entries for the stack checker.
        self.function_entries: Set[int] = set()
        #: (insn_addr, target) pairs whose target fell outside the range.
        self.out_of_range_targets: List[Tuple[int, int]] = []
        #: Block starts whose final instruction falls through past the
        #: end of the walkable range (no terminator was ever found).
        self.unterminated: List[int] = []
        #: (earlier_insn_addr, entry_addr) pairs where a control-flow
        #: target lands *inside* an already-decoded instruction.
        self.overlaps: List[Tuple[int, int]] = []
        self._reachable: Optional[Set[int]] = None
        self._sorted_starts: Optional[List[int]] = None

    # -- queries --------------------------------------------------------
    def instruction_at(self, addr: int) -> Optional[Insn]:
        """The instruction *starting* at ``addr``, if the walker saw one."""
        return self.insn_map.get(addr)

    def contains_address(self, addr: int) -> bool:
        """True when ``addr`` is a discovered instruction start."""
        return addr in self.insn_map

    def block_of(self, addr: int) -> Optional[BasicBlock]:
        """The basic block whose address range covers ``addr``."""
        if self._sorted_starts is None:
            self._sorted_starts = sorted(self.blocks)
        idx = bisect_right(self._sorted_starts, addr) - 1
        if idx < 0:
            return None
        block = self.blocks[self._sorted_starts[idx]]
        return block if block.start <= addr < block.end else None

    def instructions(self) -> Iterator[Insn]:
        for addr in sorted(self.insn_map):
            yield self.insn_map[addr]

    # -- reachability ---------------------------------------------------
    @property
    def reachable(self) -> Set[int]:
        """Block starts reachable from the roots (following call edges)."""
        if self._reachable is None:
            seen: Set[int] = set()
            work = deque(r for r in self.roots if r in self.blocks)
            while work:
                start = work.popleft()
                if start in seen:
                    continue
                seen.add(start)
                block = self.blocks[start]
                for nxt in block.succs + block.calls:
                    if nxt in self.blocks and nxt not in seen:
                        work.append(nxt)
            self._reachable = seen
        return self._reachable

    def unreachable_blocks(self) -> List[BasicBlock]:
        """Blocks the roots cannot reach, in deterministic order.

        The result is sorted by block start address so reports and
        baselines never depend on set iteration order.
        """
        return [self.blocks[s] for s in sorted(self.blocks)
                if s not in self.reachable]

    def reachable_instructions(self) -> Iterator[Insn]:
        for start in sorted(self.reachable):
            yield from self.blocks[start].insns

    # -- graph structure ------------------------------------------------
    def back_edges(self) -> List[Tuple[int, int]]:
        """(source, target) succ edges that close a cycle.

        Found by an iterative DFS over ``succs`` from the roots and
        every function entry; an edge is a back edge when its target is
        still on the DFS stack.  Deterministic: children are visited in
        sorted order.
        """
        entries = sorted(set(self.roots) | self.function_entries)
        WHITE, GREY, BLACK = 0, 1, 2
        color: Dict[int, int] = {n: WHITE for n in self.blocks}
        edges: List[Tuple[int, int]] = []
        for entry in entries:
            if entry not in self.blocks or color[entry] != WHITE:
                continue
            stack: List[Tuple[int, Iterator[int]]] = []
            color[entry] = GREY
            stack.append((entry, iter(sorted(self.blocks[entry].succs))))
            while stack:
                node, children = stack[-1]
                advanced = False
                for child in children:
                    if child not in self.blocks:
                        continue
                    if color[child] == GREY:
                        edges.append((node, child))
                    elif color[child] == WHITE:
                        color[child] = GREY
                        stack.append(
                            (child, iter(sorted(self.blocks[child].succs))))
                        advanced = True
                        break
                if not advanced:
                    color[node] = BLACK
                    stack.pop()
        return sorted(edges)

    def loop_heads(self) -> Set[int]:
        """Block starts that are the target of at least one back edge."""
        return {target for _, target in self.back_edges()}

    # -- dominators -----------------------------------------------------
    def dominators(self) -> Dict[int, Set[int]]:
        """Iterative dominator sets over the intra-procedural graph.

        Entry nodes are the roots plus every function entry (call edges
        do not count as graph edges — a call returns to its fallthrough
        block).  Returns ``{block_start: set_of_dominating_starts}``
        for every reachable block; each block dominates itself.
        """
        nodes = self.reachable
        entries = {s for s in nodes
                   if s in set(self.roots) | self.function_entries}
        preds: Dict[int, Set[int]] = {n: set() for n in nodes}
        for start in nodes:
            for succ in self.blocks[start].succs:
                if succ in nodes:
                    preds[succ].add(start)
        dom: Dict[int, Set[int]] = {}
        for n in nodes:
            dom[n] = {n} if n in entries else set(nodes)
        changed = True
        while changed:
            changed = False
            for n in sorted(nodes):
                if n in entries:
                    continue
                incoming = [dom[p] for p in preds[n]]
                new = set.intersection(*incoming) | {n} if incoming else {n}
                if new != dom[n]:
                    dom[n] = new
                    changed = True
        return dom


def walk(fetch: Callable[[int], int], roots: Iterable[int], *,
         code_range: Tuple[int, int] = (0, 1 << 32),
         trap_targets: Optional[Dict[int, int]] = None) -> CFG:
    """Discover all statically-reachable code from ``roots``.

    ``fetch`` reads a 16-bit word at a guest address.  ``code_range``
    bounds the addresses the walker will decode (half-open); targets
    outside it are recorded, not followed.  ``trap_targets`` maps an
    A-line trap index to its stub address so trap words become call
    edges instead of opaque fallthroughs.
    """
    lo, hi = code_range
    traps = trap_targets or {}
    cfg = CFG(tuple(dict.fromkeys(roots)))

    leaders: Set[int] = set()
    pending: deque = deque()

    def enqueue(addr: int, source: Optional[int] = None) -> bool:
        if not (lo <= addr < hi):
            if source is not None:
                cfg.out_of_range_targets.append((source, addr))
            return False
        leaders.add(addr)
        pending.append(addr)
        return True

    for root in cfg.roots:
        enqueue(root)

    # -- phase 1: discover instructions --------------------------------
    while pending:
        cur = pending.popleft()
        block_head = cur
        while lo <= cur < hi and cur not in cfg.insn_map:
            insn = decode_insn(fetch, cur)
            cfg.insn_map[cur] = insn
            if insn.target is not None:
                if enqueue(insn.target, cur) and insn.kind == K_CALL:
                    cfg.function_entries.add(insn.target)
            if insn.kind == K_TRAP and insn.trap in traps:
                stub = traps[insn.trap]
                if enqueue(stub, cur):
                    cfg.function_entries.add(stub)
            if insn.kind in (K_CONDBRANCH, K_CALL):
                leaders.add(insn.end)
            if not insn.falls_through():
                break
            cur = insn.end
        else:
            # The linear walk left the decodable range (or merged into
            # already-decoded code).  Out-of-range fallthrough means the
            # run from this leader never found a terminator.
            if not (lo <= cur < hi):
                cfg.unterminated.append(block_head)

    # -- overlap detection ----------------------------------------------
    starts = sorted(cfg.insn_map)
    for i in range(1, len(starts)):
        prev, here = starts[i - 1], starts[i]
        if cfg.insn_map[prev].end > here:
            cfg.overlaps.append((prev, here))

    # -- phase 2: slice into basic blocks -------------------------------
    for leader in sorted(a for a in leaders if a in cfg.insn_map):
        if leader in cfg.blocks:
            continue
        block = BasicBlock(leader)
        addr = leader
        while addr in cfg.insn_map:
            insn = cfg.insn_map[addr]
            block.insns.append(insn)
            if insn.kind == K_TRAP and insn.trap in traps:
                block.calls.append(traps[insn.trap])
            if insn.kind == K_BRANCH:
                if insn.target is not None:
                    block.succs.append(insn.target)
                else:
                    block.indirect_exit = True
                break
            if insn.kind == K_CONDBRANCH:
                if insn.target is not None:
                    block.succs.append(insn.target)
                block.succs.append(insn.end)
                break
            if insn.kind == K_CALL:
                if insn.target is not None:
                    block.calls.append(insn.target)
                else:
                    block.indirect_exit = True
                block.succs.append(insn.end)
                break
            if insn.kind in (K_RETURN, K_ILLEGAL) or not insn.falls_through():
                break
            addr = insn.end
            if addr in leaders:              # next insn starts a block
                block.succs.append(addr)
                break
        cfg.blocks[leader] = block

    # Successors that point at addresses we never decoded (out of range)
    # stay in the lists; reachability simply skips them, and the
    # analyzer reports the out_of_range_targets entries.
    return cfg
