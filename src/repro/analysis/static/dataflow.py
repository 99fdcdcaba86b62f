"""Worklist abstract interpretation over the CFG: constant propagation.

The structural layer (:mod:`decode`, :mod:`walker`) answers *where*
control flow can go; this module answers *what values* flow there.  It
runs a classic worklist fixpoint over :class:`~.walker.CFG` basic
blocks with a three-level flat lattice per storage cell:

``⊥``
    (absent state) — the block has not been reached yet;
``const``
    a single 32-bit value, or a *symbolic* stack address
    ``('s', offset)`` meaning "the function's entry A7 plus offset";
``⊤``
    (``None``) — unknown.

Alongside the sixteen registers the state tracks **stack slots**: the
longwords a function has pushed, keyed by their entry-relative byte
offset.  That is what turns a trap call site's ``move.l #x,-(sp)`` /
``dc.w $Axxx`` idiom into recoverable trap *arguments*.

Soundness contract (differentially tested against ``repro.m68k.cpu``):
any register the analysis claims constant at a block entry equals the
interpreted register value every time execution reaches that address.
To keep that promise the transfer function havocs everything it cannot
model exactly: calls, traps and emucalls clobber all registers except
A7 (assumed balanced — the stack checker verifies that independently)
and drop every tracked slot; memory reads resolve to constants only
for stack slots this function wrote itself, or for addresses inside an
explicitly write-protected ``readonly_ranges`` window; a write through
an unknown or non-symbolic pointer kills all slots (it may alias the
stack).

Termination: every cell lives in a flat lattice, and the per-block
join only *drops* slots, so the fixpoint converges on its own for
ordinary code; loop heads additionally get **widened** (slots cleared)
after ``max_visits`` re-joins as a hard guarantee, with a larger
global cap for pathological graphs.  Widened blocks are reported in
:attr:`ConstResult.widened`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional,
                    Sequence, Set, Tuple, Union)

from ...m68k.disasm import (Insn, K_CALL, K_CONDBRANCH, K_EMUCALL,
                            K_EXCEPTION, K_NORMAL, K_TRAP)
from .walker import CFG, BasicBlock

M32 = 0xFFFFFFFF

#: Abstract value: ``None`` is ⊤, an ``int`` is a known 32-bit
#: constant, and ``('s', off)`` is the symbolic address "entry A7 +
#: off" (⊥ is represented by the *absence* of a block state).
Sym = Tuple[str, int]
RVal = Union[int, Sym, None]

#: The symbolic stack pointer every function starts with.
ENTRY_SP: Sym = ("s", 0)


def _sext(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    if value & (1 << (bits - 1)):
        value -= 1 << bits
    return value & M32


def _mask(size: int) -> int:
    return (1 << (8 * size)) - 1


def _s32(value: int) -> int:
    """Interpret a (possibly already-negative) int as signed 32-bit."""
    value &= M32
    return value - (1 << 32) if value & 0x80000000 else value


def val_add(x: RVal, y: RVal) -> RVal:
    """Abstract 32-bit addition (closed over symbolic sp values)."""
    if isinstance(x, int) and isinstance(y, int):
        return (x + y) & M32
    if isinstance(x, tuple) and isinstance(y, int):
        return (x[0], x[1] + _s32(y))
    if isinstance(y, tuple) and isinstance(x, int):
        return (y[0], y[1] + _s32(x))
    return None


def val_sub(x: RVal, y: RVal) -> RVal:
    """Abstract 32-bit subtraction; sym - sym folds to a constant."""
    if isinstance(x, int) and isinstance(y, int):
        return (x - y) & M32
    if isinstance(x, tuple) and isinstance(y, int):
        return (x[0], x[1] - _s32(y))
    if isinstance(x, tuple) and isinstance(y, tuple) and x[0] == y[0]:
        return (x[1] - y[1]) & M32
    return None


@dataclass(frozen=True)
class AbsState:
    """One immutable abstract machine state (block entry or exit).

    ``slots`` maps entry-relative stack offsets to the longword value
    stored there, sorted by offset so equal states compare equal.
    """

    d: Tuple[RVal, ...]
    a: Tuple[RVal, ...]
    slots: Tuple[Tuple[int, RVal], ...] = ()

    @classmethod
    def entry(cls) -> "AbsState":
        """The state a function is analyzed under: everything unknown
        except A7, which is the symbolic entry stack pointer."""
        return cls(d=(None,) * 8, a=(None,) * 7 + (ENTRY_SP,), slots=())

    def dreg(self, i: int) -> RVal:
        return self.d[i]

    def areg(self, i: int) -> RVal:
        return self.a[i]

    @property
    def sp(self) -> RVal:
        return self.a[7]

    def slot(self, off: int) -> RVal:
        for key, value in self.slots:
            if key == off:
                return value
        return None

    def constants(self) -> Dict[str, int]:
        """Registers with known integer values, as ``{"d0": v, ...}``."""
        out: Dict[str, int] = {}
        for i, value in enumerate(self.d):
            if isinstance(value, int):
                out[f"d{i}"] = value
        for i, value in enumerate(self.a):
            if isinstance(value, int):
                out[f"a{i}"] = value
        return out


def join(x: AbsState, y: AbsState) -> AbsState:
    """Pointwise join: keep a cell only where both states agree."""
    if x == y:
        return x
    d = tuple(vx if vx == vy else None for vx, vy in zip(x.d, y.d))
    a = tuple(vx if vx == vy else None for vx, vy in zip(x.a, y.a))
    ys = dict(y.slots)
    slots = tuple((off, value) for off, value in x.slots
                  if ys.get(off) == value)
    return AbsState(d=d, a=a, slots=slots)


def widen(state: AbsState) -> AbsState:
    """Loop-head widening: drop the (unbounded) slot map, keep the
    (finite, flat) register lattice to converge on its own."""
    if not state.slots:
        return state
    return AbsState(d=state.d, a=state.a, slots=())


@dataclass(frozen=True)
class MemOp:
    """One memory operand of one instruction, as far as the abstract
    interpreter could resolve it.

    ``base`` says how the address was derived: ``"const"`` (absolute,
    ``addr`` holds it), ``"stack"`` (entry-sp relative, ``sp_off``
    holds the offset), or ``"unknown"``.
    """

    insn: int
    write: bool
    size: int
    base: str
    addr: Optional[int] = None
    sp_off: Optional[int] = None
    #: Known 32-bit value being stored (writes only).
    value: Optional[int] = None

    @property
    def known(self) -> bool:
        return self.base != "unknown"

    def refs(self) -> int:
        """Bus references this access costs (the bus splits longword
        and wider accesses into 16-bit cycles)."""
        return max(1, (self.size + 1) // 2)


@dataclass(frozen=True)
class TrapSite:
    """One A-line call site with its recovered stack arguments.

    ``args[i]`` is the i-th longword above A7 at the trap word (the
    last-pushed argument first — C argument order), ``None`` where the
    value is not a compile-time constant.  ``sp_known`` is False when
    the analysis lost track of A7 entirely.
    """

    addr: int
    trap: int
    args: Tuple[Optional[int], ...] = ()
    sp_known: bool = True


@dataclass
class ConstResult:
    """Everything the constant-propagation fixpoint learned."""

    #: Abstract state at each analyzed block's entry / exit.
    block_in: Dict[int, AbsState] = field(default_factory=dict)
    block_out: Dict[int, AbsState] = field(default_factory=dict)
    #: State immediately before each instruction (joined when an
    #: instruction is shared by several blocks).
    insn_in: Dict[int, AbsState] = field(default_factory=dict)
    #: Memory operands per instruction address.
    mem_ops: Dict[int, Tuple[MemOp, ...]] = field(default_factory=dict)
    #: Instruction addresses whose memory behaviour is fully modeled
    #: (every dynamic access appears in ``mem_ops``).
    modeled: Set[int] = field(default_factory=set)
    #: Reachable A-line sites with recovered arguments.
    trap_sites: List[TrapSite] = field(default_factory=list)
    #: (dead_store_insn, overwriting_insn) pairs: the first stored a
    #: stack slot that was provably overwritten before any read.
    dead_stores: List[Tuple[int, int]] = field(default_factory=list)
    #: Blocks whose in-state was widened (slot map dropped).
    widened: Set[int] = field(default_factory=set)
    #: Join count per block (diagnostics).
    visits: Dict[int, int] = field(default_factory=dict)

    def constants_at(self, addr: int) -> Dict[str, int]:
        state = self.insn_in.get(addr)
        return state.constants() if state is not None else {}


def analyze_constprop(
        cfg: CFG, fetch: Callable[[int], int], *,
        readonly_ranges: Sequence[Tuple[int, int]] = (),
        max_visits: int = 12) -> ConstResult:
    """Run the constant-propagation fixpoint over ``cfg``.

    ``fetch`` reads a 16-bit guest word (same callable the walker
    used).  ``readonly_ranges`` lists half-open address windows whose
    contents can never change at runtime (write-protected flash); only
    reads inside them may resolve to image constants.  ``max_visits``
    is the per-loop-head join budget before widening.
    """
    result = ConstResult()
    entries = (set(cfg.roots) | cfg.function_entries) & set(cfg.blocks)
    if not entries:
        return result
    loop_heads = cfg.loop_heads()
    hard_cap = max_visits * 8

    in_state: Dict[int, AbsState] = {b: AbsState.entry()
                                     for b in entries}
    work: deque = deque(sorted(entries))
    queued: Set[int] = set(work)
    xfer = _Xfer(fetch, tuple(readonly_ranges))

    while work:
        start = work.popleft()
        queued.discard(start)
        block = cfg.blocks[start]
        state_in = in_state[start]
        state_out = xfer.run_block(block, state_in)
        if result.block_out.get(start) == state_out \
                and result.block_in.get(start) == state_in:
            continue
        result.block_in[start] = state_in
        result.block_out[start] = state_out
        for succ in block.succs:
            if succ not in cfg.blocks:
                continue
            current = in_state.get(succ)
            new = state_out if current is None else join(current, state_out)
            if new == current:
                continue
            count = result.visits.get(succ, 0) + 1
            result.visits[succ] = count
            if (count > max_visits and succ in loop_heads) \
                    or count > hard_cap:
                degraded = widen(new)
                if degraded != new:
                    result.widened.add(succ)
                new = degraded
            if new != current:
                in_state[succ] = new
                if succ not in queued:
                    work.append(succ)
                    queued.add(succ)
        # Call targets are function entries: they were seeded with the
        # generic entry state already, which the callee state can only
        # degrade toward — nothing to propagate along call edges.

    # Harvest: one deterministic pass with the fixpoint states,
    # recording per-instruction facts.
    harvest = _Harvest(result)
    for start in sorted(result.block_in):
        xfer.run_block(cfg.blocks[start], result.block_in[start],
                       harvest=harvest)
    result.trap_sites.sort(key=lambda site: site.addr)
    result.dead_stores.sort()
    return result


# ---------------------------------------------------------------------------
# Backward pass: nondeterminism reachability.
# ---------------------------------------------------------------------------

def nondet_reachability(
        cfg: CFG, nondet_traps: Iterable[int]) -> Dict[int, FrozenSet[int]]:
    """For every block, the set of ``nondet_traps`` indices some path
    from that block can reach (following fallthrough, branch *and*
    call edges — a called function's traps count as reachable).

    This is a backward may-analysis over the set-union lattice: the
    block's value is its own trap sites joined with every successor's
    value, iterated to fixpoint.
    """
    interesting = frozenset(nondet_traps)
    gen: Dict[int, Set[int]] = {}
    for start, block in cfg.blocks.items():
        gen[start] = {insn.trap for insn in block.insns
                      if insn.kind == K_TRAP and insn.trap in interesting}

    # Reverse edges over succs + calls so the worklist walks backward.
    rev: Dict[int, List[int]] = {n: [] for n in cfg.blocks}
    fwd: Dict[int, List[int]] = {}
    for start in sorted(cfg.blocks):
        block = cfg.blocks[start]
        outs = [t for t in block.succs + block.calls if t in cfg.blocks]
        fwd[start] = outs
        for target in outs:
            rev[target].append(start)

    value: Dict[int, Set[int]] = {n: set(g) for n, g in gen.items()}
    work: deque = deque(sorted(cfg.blocks))
    queued = set(work)
    while work:
        node = work.popleft()
        queued.discard(node)
        new = set(gen[node])
        for target in fwd[node]:
            new |= value[target]
        if new != value[node]:
            value[node] = new
            for pred in rev[node]:
                if pred not in queued:
                    work.append(pred)
                    queued.add(pred)
    return {n: frozenset(v) for n, v in value.items()}


# ---------------------------------------------------------------------------
# Harvest bookkeeping.
# ---------------------------------------------------------------------------

class _Harvest:
    """Collects per-instruction facts during the final block pass."""

    def __init__(self, result: ConstResult):
        self.result = result
        #: slot offset -> insn addr of the pending (unread) store.
        self.pending_stores: Dict[int, int] = {}

    def insn_state(self, insn: Insn, state: AbsState) -> None:
        seen = self.result.insn_in.get(insn.addr)
        self.result.insn_in[insn.addr] = \
            state if seen is None else join(seen, state)

    def mem_ops(self, insn: Insn, ops: List[MemOp], modeled: bool) -> None:
        previous = self.result.mem_ops.get(insn.addr)
        merged = tuple(ops)
        if previous is not None and previous != merged:
            merged = _join_mem_ops(previous, merged)
        self.result.mem_ops[insn.addr] = merged
        if modeled and (previous is None or insn.addr in self.result.modeled):
            self.result.modeled.add(insn.addr)
        else:
            self.result.modeled.discard(insn.addr)
        self._track_dead_stores(insn, merged)

    def trap_site(self, site: TrapSite) -> None:
        existing = [s for s in self.result.trap_sites if s.addr == site.addr]
        if not existing:
            self.result.trap_sites.append(site)
            return
        old = existing[0]
        if old != site:
            # Joined over paths: keep only agreeing argument values.
            args = tuple(x if x == y else None
                         for x, y in zip(old.args, site.args))
            self.result.trap_sites.remove(old)
            self.result.trap_sites.append(TrapSite(
                site.addr, site.trap, args,
                old.sp_known and site.sp_known))

    def block_boundary(self) -> None:
        self.pending_stores.clear()

    def barrier(self) -> None:
        """A call/trap/unknown access: stop pairing dead stores."""
        self.pending_stores.clear()

    def _track_dead_stores(self, insn: Insn, ops: Tuple[MemOp, ...]) -> None:
        for op in ops:
            if op.write and op.base == "stack" and op.size == 4 \
                    and op.sp_off is not None:
                prior = self.pending_stores.get(op.sp_off)
                if prior is not None and prior != insn.addr:
                    self.result.dead_stores.append((prior, insn.addr))
                self.pending_stores[op.sp_off] = insn.addr
            elif op.write:
                # A write we cannot place may alias any slot.
                self.pending_stores.clear()
            elif op.base == "stack" and op.sp_off is not None:
                # Reads can touch [sp_off, sp_off+size): retire any
                # overlapping pending store.
                for off in list(self.pending_stores):
                    if off < op.sp_off + op.size and op.sp_off < off + 4:
                        del self.pending_stores[off]
            else:
                # Read through an unplaced pointer: may read anything.
                self.pending_stores.clear()


def _join_mem_ops(a: Tuple[MemOp, ...],
                  b: Tuple[MemOp, ...]) -> Tuple[MemOp, ...]:
    """Join the memory-operand lists of two paths through one insn:
    where they disagree, degrade the operand's address to unknown."""
    if len(a) != len(b):
        # Shapes differ (path-dependent EA side effects): keep the
        # writes/sizes of the longer list but mark every address
        # unknown so no downstream consumer trusts it.
        longer = a if len(a) >= len(b) else b
        return tuple(MemOp(op.insn, op.write, op.size, "unknown")
                     for op in longer)
    out: List[MemOp] = []
    for x, y in zip(a, b):
        if x == y:
            out.append(x)
        elif x.write == y.write and x.size == y.size:
            out.append(MemOp(x.insn, x.write, x.size, "unknown"))
        else:
            out.append(MemOp(x.insn, x.write or y.write,
                             max(x.size, y.size), "unknown"))
    return tuple(out)


# ---------------------------------------------------------------------------
# The abstract transfer function.
# ---------------------------------------------------------------------------

class _MutState:
    """Mutable working copy of an :class:`AbsState` for one block run."""

    __slots__ = ("d", "a", "slots")

    def __init__(self, frozen: AbsState):
        self.d: List[RVal] = list(frozen.d)
        self.a: List[RVal] = list(frozen.a)
        self.slots: Dict[int, RVal] = dict(frozen.slots)

    def freeze(self) -> AbsState:
        return AbsState(d=tuple(self.d), a=tuple(self.a),
                        slots=tuple(sorted(self.slots.items())))


class _Words:
    """Extension-word reader mirroring the interpreter's fetch order."""

    __slots__ = ("fetch", "addr")

    def __init__(self, fetch: Callable[[int], int], addr: int):
        self.fetch = fetch
        self.addr = addr

    def u16(self) -> int:
        word = self.fetch(self.addr) & 0xFFFF
        self.addr += 2
        return word

    def u32(self) -> int:
        return (self.u16() << 16) | self.u16()


class _Loc:
    """One evaluated operand location."""

    __slots__ = ("kind", "reg", "addr", "imm")

    def __init__(self, kind: str, reg: int = 0,
                 addr: RVal = None, imm: int = 0):
        self.kind = kind            # 'd' | 'a' | 'm' | 'i'
        self.reg = reg
        self.addr = addr            # for 'm'
        self.imm = imm              # for 'i'


class _Xfer:
    """Applies one instruction's abstract semantics to a _MutState.

    Everything not modeled exactly degrades to ⊤ — the differential
    test holds this class to the soundness contract in the module
    docstring, so "conservative" always wins over "clever" here.
    """

    def __init__(self, fetch: Callable[[int], int],
                 readonly_ranges: Tuple[Tuple[int, int], ...] = ()):
        self.fetch = fetch
        self.readonly = readonly_ranges
        self.ops: List[MemOp] = []
        self.modeled = True
        self._insn_addr = 0

    # -- block driver ---------------------------------------------------
    def run_block(self, block: BasicBlock, state_in: AbsState,
                  harvest: Optional[_Harvest] = None) -> AbsState:
        st = _MutState(state_in)
        if harvest is not None:
            harvest.block_boundary()
        for insn in block.insns:
            if harvest is not None:
                harvest.insn_state(insn, st.freeze())
            self.ops = []
            self.modeled = True
            self._insn_addr = insn.addr
            barrier = self.step(insn, st, harvest)
            if harvest is not None:
                harvest.mem_ops(insn, self.ops, self.modeled)
                if barrier:
                    harvest.barrier()
        return st.freeze()

    # -- per-instruction dispatch ---------------------------------------
    def step(self, insn: Insn, st: _MutState,
             harvest: Optional[_Harvest]) -> bool:
        """Apply ``insn``; returns True when the insn is a dead-store
        pairing barrier (call/trap/havoc)."""
        kind = insn.kind
        if kind == K_TRAP:
            if harvest is not None:
                harvest.trap_site(self._trap_site(insn, st))
            self._havoc_call(st)
            return True
        if kind in (K_CALL, K_EMUCALL, K_EXCEPTION):
            self._havoc_call(st)
            return True
        if kind == K_CONDBRANCH and (insn.word >> 12) == 5:
            # dbcc: the counter's low word decrements on the
            # fallthrough path only — path-dependent, so ⊤.
            self._set_d(st, insn.word & 7, None, 2)
            return False
        if kind == K_NORMAL:
            self._normal(insn, st)
            return False
        # branch / condbranch(bcc) / return / illegal / stop: no
        # register or memory effect to model.
        return False

    def _trap_site(self, insn: Insn, st: _MutState) -> TrapSite:
        sp = st.a[7]
        if not isinstance(sp, tuple):
            return TrapSite(insn.addr, insn.trap or 0, (), False)
        args: List[Optional[int]] = []
        for i in range(4):
            value = st.slots.get(sp[1] + 4 * i)
            args.append(value if isinstance(value, int) else None)
        while args and args[-1] is None:
            args.pop()
        return TrapSite(insn.addr, insn.trap or 0, tuple(args), True)

    def _havoc_call(self, st: _MutState) -> None:
        """Calls/traps clobber everything except A7 (assumed balanced;
        the stack checker verifies that separately) and may write any
        memory, so all tracked slots die."""
        for i in range(8):
            st.d[i] = None
        for i in range(7):
            st.a[i] = None
        st.slots.clear()

    def _havoc_unknown(self, st: _MutState, insn: Insn) -> None:
        sp = st.a[7]
        self._havoc_call(st)
        st.a[7] = val_add(sp, insn.sp_delta) \
            if insn.sp_delta is not None else None
        self.modeled = False

    # -- operand plumbing ----------------------------------------------
    def _ea(self, w: _Words, mode: int, reg: int, size: int,
            st: _MutState) -> _Loc:
        if mode == 0:
            return _Loc("d", reg)
        if mode == 1:
            return _Loc("a", reg)
        if mode == 2:
            return _Loc("m", addr=st.a[reg])
        if mode == 3:                                  # (An)+
            step = 2 if (reg == 7 and size == 1) else size
            addr = st.a[reg]
            st.a[reg] = val_add(addr, step)
            return _Loc("m", addr=addr)
        if mode == 4:                                  # -(An)
            step = 2 if (reg == 7 and size == 1) else size
            addr = val_sub(st.a[reg], step)
            st.a[reg] = addr
            return _Loc("m", addr=addr)
        if mode == 5:                                  # d16(An)
            disp = _sext(w.u16(), 16)
            return _Loc("m", addr=val_add(st.a[reg], disp))
        if mode == 6:                                  # d8(An,Xn)
            ext = w.u16()
            return _Loc("m", addr=self._indexed(ext, st.a[reg], st))
        # mode == 7
        if reg == 0:
            return _Loc("m", addr=_sext(w.u16(), 16))
        if reg == 1:
            return _Loc("m", addr=w.u32())
        if reg == 2:                                   # d16(PC)
            base = w.addr
            return _Loc("m", addr=(base + _s32(_sext(w.u16(), 16))) & M32)
        if reg == 3:                                   # d8(PC,Xn)
            base = w.addr
            ext = w.u16()
            return _Loc("m", addr=self._indexed(ext, base & M32, st))
        # reg == 4: immediate
        imm = w.u32() if size == 4 else (w.u16() & _mask(size))
        return _Loc("i", imm=imm)

    def _indexed(self, ext: int, base: RVal, st: _MutState) -> RVal:
        xreg = (ext >> 12) & 7
        index = st.a[xreg] if ext & 0x8000 else st.d[xreg]
        if not (ext & 0x0800):                         # word index
            index = _sext(index & 0xFFFF, 16) \
                if isinstance(index, int) else None
        disp = _sext(ext & 0xFF, 8)
        return val_add(val_add(base, disp), index)

    def _record(self, write: bool, addr: RVal, size: int,
                value: RVal = None) -> None:
        if isinstance(addr, tuple):
            op = MemOp(self._insn_addr, write, size, "stack",
                       sp_off=addr[1],
                       value=value if isinstance(value, int) else None)
        elif isinstance(addr, int):
            op = MemOp(self._insn_addr, write, size, "const", addr=addr,
                       value=value if isinstance(value, int) else None)
        else:
            op = MemOp(self._insn_addr, write, size, "unknown")
        self.ops.append(op)

    def _load(self, loc: _Loc, size: int, st: _MutState) -> RVal:
        """The operand's value, masked to ``size`` (⊤-safe)."""
        if loc.kind == "i":
            return loc.imm & _mask(size)
        if loc.kind in ("d", "a"):
            value = st.d[loc.reg] if loc.kind == "d" else st.a[loc.reg]
            if isinstance(value, int):
                return value & _mask(size)
            return value if size == 4 else None
        self._record(False, loc.addr, size)
        return self._read_mem(loc.addr, size, st)

    def _read_mem(self, addr: RVal, size: int, st: _MutState) -> RVal:
        if isinstance(addr, tuple):
            if size == 4:
                return st.slots.get(addr[1])
            return None
        if isinstance(addr, int):
            return self._read_image(addr, size)
        return None

    def _read_image(self, addr: int, size: int) -> RVal:
        """A constant memory read — sound only inside write-protected
        ranges, where the image can never change at runtime."""
        if not any(lo <= addr and addr + size <= hi
                   for lo, hi in self.readonly):
            return None
        if size == 1:
            word = self.fetch(addr & ~1) & 0xFFFF
            return (word >> 8) & 0xFF if addr % 2 == 0 else word & 0xFF
        if addr % 2:
            return None
        if size == 2:
            return self.fetch(addr) & 0xFFFF
        return ((self.fetch(addr) & 0xFFFF) << 16) \
            | (self.fetch(addr + 2) & 0xFFFF)

    def _store(self, loc: _Loc, size: int, value: RVal,
               st: _MutState) -> None:
        if loc.kind == "d":
            self._set_d(st, loc.reg, value, size)
            return
        if loc.kind == "a":
            self._set_a(st, loc.reg, value, size)
            return
        self._record(True, loc.addr, size, value)
        self._write_mem(loc.addr, size, value, st)

    def _write_mem(self, addr: RVal, size: int, value: RVal,
                   st: _MutState) -> None:
        if isinstance(addr, tuple):
            off = addr[1]
            for key in [k for k in st.slots
                        if k < off + size and off < k + 4]:
                del st.slots[key]
            if size == 4 and value is not None:
                st.slots[off] = value
        else:
            # Constant or unknown pointer: either may alias the stack
            # (the symbolic base is unknown), so every slot dies.
            st.slots.clear()

    def _set_d(self, st: _MutState, reg: int, value: RVal,
               size: int) -> None:
        if size == 4:
            st.d[reg] = value
            return
        old = st.d[reg]
        if isinstance(old, int) and isinstance(value, int):
            mask = _mask(size)
            st.d[reg] = (old & ~mask) | (value & mask)
        else:
            st.d[reg] = None

    def _set_a(self, st: _MutState, reg: int, value: RVal,
               size: int) -> None:
        """Address-register writes are always full-width; word sources
        sign-extend (movea.w / adda.w semantics)."""
        if size == 2:
            value = _sext(value, 16) if isinstance(value, int) else None
        st.a[reg] = value

    def _alu_d(self, st: _MutState, reg: int, size: int,
               fn: Callable[[int], Optional[int]]) -> None:
        """Apply ``fn`` to Dn's low ``size`` bytes (partial write)."""
        old = st.d[reg]
        if isinstance(old, int):
            new = fn(old & _mask(size))
            self._set_d(st, reg, new, size)
        else:
            self._set_d(st, reg, None, size)

    def _rmw_mem(self, loc: _Loc, size: int, st: _MutState,
                 fn: Callable[[int], Optional[int]]) -> None:
        """Read-modify-write a memory/register operand through ``fn``."""
        if loc.kind in ("d", "a"):
            if loc.kind == "d":
                self._alu_d(st, loc.reg, size, fn)
            else:
                old = st.a[loc.reg]
                new = fn(old & _mask(size)) if isinstance(old, int) else None
                self._set_a(st, loc.reg, new, size)
            return
        old = self._load(loc, size, st)
        new = fn(old) if isinstance(old, int) else None
        self._store(loc, size, new, st)

    # -- the structural dispatch (mirrors decode._decode_structure) -----
    def _normal(self, insn: Insn, st: _MutState) -> None:
        op = insn.word
        group = op >> 12
        mode, reg = (op >> 3) & 7, op & 7
        szbits = (op >> 6) & 3
        w = _Words(self.fetch, insn.addr + 2)

        # ---- fixed words ---------------------------------------------
        if op in (0x4E70, 0x4E71, 0x4E76):            # reset / nop / trapv
            return
        if op & 0xFFF8 == 0x4E50:                     # link An,#d
            disp = _s32(_sext(w.u16(), 16))
            sp = val_sub(st.a[7], 4)
            self._record(True, sp, 4, st.a[reg])
            self._write_mem(sp, 4, st.a[reg], st)
            st.a[reg] = sp
            st.a[7] = val_add(sp, disp)
            return
        if op & 0xFFF8 == 0x4E58:                     # unlk An
            sp = st.a[reg]
            self._record(False, sp, 4)
            st.a[reg] = self._read_mem(sp, 4, st)
            st.a[7] = val_add(sp, 4)
            return
        if op & 0xFFF8 == 0x4E68:                     # move usp,An
            st.a[reg] = None
            return
        if op & 0xFFF8 == 0x4E60:                     # move An,usp
            return

        # ---- group 1/2/3: move ---------------------------------------
        if group in (1, 2, 3):
            size = {1: 1, 3: 2, 2: 4}[group]
            src = self._ea(w, mode, reg, size, st)
            value = self._load(src, size, st)
            dmode, dreg = (op >> 6) & 7, (op >> 9) & 7
            dst = self._ea(w, dmode, dreg, size, st)
            self._store(dst, size, value, st)
            return

        # ---- group 0: immediates and bit ops -------------------------
        if group == 0:
            self._group0(op, mode, reg, szbits, w, st)
            return

        # ---- group 4 --------------------------------------------------
        if group == 4:
            self._group4(op, mode, reg, szbits, w, st, insn)
            return

        # ---- group 5: addq/subq, scc ---------------------------------
        if group == 5:
            if szbits == 3:                           # scc (dbcc handled)
                loc = self._ea(w, mode, reg, 1, st)
                if loc.kind == "m":                   # modify_ea reads first
                    self._load(loc, 1, st)
                self._store(loc, 1, None, st)
                return
            data = ((op >> 9) & 7) or 8
            size = _size_of(szbits)
            if mode == 1:                             # An: full-width
                st.a[reg] = (val_sub if op & 0x0100 else val_add)(
                    st.a[reg], data)
                return
            loc = self._ea(w, mode, reg, size, st)
            sub = bool(op & 0x0100)
            self._rmw_mem(loc, size, st,
                          lambda v: ((v - data) if sub else (v + data))
                          & _mask(size))
            return

        # ---- group 6/7 ------------------------------------------------
        if group == 6:                                # bcc: no effect
            return
        if group == 7:                                # moveq
            st.d[(op >> 9) & 7] = _sext(op & 0xFF, 8)
            return

        # ---- groups 8/9/B/C/D ----------------------------------------
        if group in (8, 9, 0xB, 0xC, 0xD):
            self._arith(op, group, mode, reg, w, st)
            return

        # ---- group E: shifts -----------------------------------------
        if group == 0xE:
            self._shift(op, mode, reg, szbits, w, st)
            return

        self._havoc_unknown(st, insn)

    # -- group 0: immediates, bit ops, movep ---------------------------
    def _group0(self, op: int, mode: int, reg: int, szbits: int,
                w: _Words, st: _MutState) -> None:
        if op & 0x0100:                               # dynamic bit / movep
            if mode == 1:                             # movep
                disp = _sext(w.u16(), 16)
                addr = val_add(st.a[reg], disp)
                span = 7 if op & 0x0040 else 3        # alternate bytes
                dreg = (op >> 9) & 7
                if op & 0x0080:                       # reg -> mem
                    self._record(True, None, span)
                    self._write_mem(addr, span, None, st)
                else:
                    self._record(False, None, span)
                    self._set_d(st, dreg, None, 4 if op & 0x0040 else 2)
                self.modeled = False                  # byte-interleaved
                return
            self._bitop(op, mode, reg, w, st)
            return
        kind = (op >> 9) & 7
        if kind == 4:                                 # static bit op
            w.u16()                                   # bit number
            self._bitop(op, mode, reg, w, st)
            return
        size = _size_of(szbits)
        if mode == 7 and reg == 4:                    # to ccr / sr
            w.u16()
            return
        imm = w.u32() if size == 4 else (w.u16() & _mask(size))
        ea = self._ea(w, mode, reg, size, st)
        if kind == 6:                                 # cmpi: read only
            self._load(ea, size, st)
            return
        m = _mask(size)
        fns: Dict[int, Callable[[int], Optional[int]]] = {
            0: lambda v: v | imm,                     # ori
            1: lambda v: v & imm,                     # andi
            2: lambda v: (v - imm) & m,               # subi
            3: lambda v: (v + imm) & m,               # addi
            5: lambda v: v ^ imm,                     # eori
        }
        self._rmw_mem(ea, size, st, fns[kind])

    def _bitop(self, op: int, mode: int, reg: int, w: _Words,
               st: _MutState) -> None:
        btype = (op >> 6) & 3                         # 0=btst 1/2/3 modify
        if mode == 0:                                 # Dn dest: long width
            if btype:
                st.d[reg] = None
            return
        ea = self._ea(w, mode, reg, 1, st)
        self._load(ea, 1, st)
        if btype:
            self._store(ea, 1, None, st)

    # -- group 4 --------------------------------------------------------
    def _group4(self, op: int, mode: int, reg: int, szbits: int,
                w: _Words, st: _MutState, insn: Insn) -> None:
        if op & 0xF1C0 == 0x41C0:                     # lea
            ea = self._ea(w, mode, reg, 4, st)
            st.a[(op >> 9) & 7] = ea.addr if ea.kind == "m" else None
            return
        if op & 0xF1C0 == 0x4180:                     # chk
            ea = self._ea(w, mode, reg, 2, st)
            self._load(ea, 2, st)
            return
        if op & 0xFFC0 == 0x40C0:                     # move sr,<ea>
            ea = self._ea(w, mode, reg, 2, st)
            self._store(ea, 2, None, st)
            return
        if op & 0xFFC0 in (0x44C0, 0x46C0):           # move <ea>,ccr / sr
            ea = self._ea(w, mode, reg, 2, st)
            self._load(ea, 2, st)
            return
        if op & 0xFFF8 == 0x4840:                     # swap
            value = st.d[reg]
            st.d[reg] = (((value >> 16) | (value << 16)) & M32
                         if isinstance(value, int) else None)
            return
        if op & 0xFFC0 == 0x4840:                     # pea
            ea = self._ea(w, mode, reg, 4, st)
            pushed = ea.addr if ea.kind == "m" else None
            sp = val_sub(st.a[7], 4)
            st.a[7] = sp
            self._record(True, sp, 4, pushed)
            self._write_mem(sp, 4, pushed, st)
            return
        if op & 0xFFB8 == 0x4880 and mode == 0:       # ext
            value = st.d[reg]
            if op & 0x0040:                           # ext.l word -> long
                st.d[reg] = (_sext(value & 0xFFFF, 16)
                             if isinstance(value, int) else None)
            else:                                     # ext.w byte -> word
                low = (_sext(value & 0xFF, 8) & 0xFFFF
                       if isinstance(value, int) else None)
                self._set_d(st, reg, low, 2)
            return
        if op & 0xFB80 == 0x4880:                     # movem
            self._movem(op, mode, reg, w, st)
            return
        if op & 0xFFC0 == 0x4800:                     # nbcd
            ea = self._ea(w, mode, reg, 1, st)
            self._rmw_mem(ea, 1, st, lambda v: None)
            return
        if op & 0xFFC0 == 0x4AC0:                     # tas
            ea = self._ea(w, mode, reg, 1, st)
            self._rmw_mem(ea, 1, st, lambda v: (v | 0x80) & 0xFF)
            return
        # negx / clr / neg / not / tst
        size = _size_of(szbits)
        m = _mask(size)
        ea = self._ea(w, mode, reg, size, st)
        top = op & 0xFF00
        if top == 0x4A00:                             # tst
            self._load(ea, size, st)
            return
        if top == 0x4200:                             # clr
            if ea.kind == "m":                        # modify_ea reads first
                self._load(ea, size, st)
            self._store(ea, size, 0, st)
            return
        if top == 0x4400:                             # neg
            self._rmw_mem(ea, size, st, lambda v: (-v) & m)
            return
        if top == 0x4600:                             # not
            self._rmw_mem(ea, size, st, lambda v: (~v) & m)
            return
        self._rmw_mem(ea, size, st, lambda v: None)   # negx (X flag)

    def _movem(self, op: int, mode: int, reg: int, w: _Words,
               st: _MutState) -> None:
        """Conservative movem: register loads havoc the masked
        registers; stores kill the written span.  Value transfer is
        deliberately not modeled (the mask's bit order differs between
        the control and predecrement forms — not worth the risk)."""
        to_regs = bool(op & 0x0400)
        size = 4 if op & 0x0040 else 2
        mask_word = w.u16()
        span = bin(mask_word).count("1") * size
        addr: RVal
        if mode == 3:                                 # (An)+ (load form)
            addr = st.a[reg]
            st.a[reg] = val_add(addr, span)
        elif mode == 4:                               # -(An) (store form)
            addr = val_sub(st.a[reg], span)
            st.a[reg] = addr
        else:
            loc = self._ea(w, mode, reg, size, st)
            addr = loc.addr if loc.kind == "m" else None
        if to_regs:
            self._record(False, addr, span)
            for i in range(16):                       # bit 0 = d0 ... a7
                if mask_word & (1 << i):
                    if i < 8:
                        st.d[i] = None
                    else:
                        st.a[i - 8] = None
        else:
            self._record(True, addr, span)
            self._write_mem(addr, span, None, st)

    # -- groups 8/9/B/C/D: two-operand arithmetic ----------------------
    def _arith(self, op: int, group: int, mode: int, reg: int,
               w: _Words, st: _MutState) -> None:
        opmode = (op >> 6) & 7
        dreg = (op >> 9) & 7
        if group in (8, 0xC) and opmode in (3, 7):    # div / mul
            ea = self._ea(w, mode, reg, 2, st)
            src = self._load(ea, 2, st)
            if group == 0x8:                          # div: packs q/r
                st.d[dreg] = None
                return
            old = st.d[dreg]
            if isinstance(src, int) and isinstance(old, int):
                if opmode == 3:                       # mulu
                    st.d[dreg] = ((old & 0xFFFF) * src) & M32
                else:                                 # muls
                    st.d[dreg] = (_s32(_sext(old & 0xFFFF, 16))
                                  * _s32(_sext(src, 16))) & M32
            else:
                st.d[dreg] = None
            return
        if group == 0xC and op & 0xF1F8 in (0xC140, 0xC148, 0xC188):
            ry = op & 7                               # exg
            if op & 0xF1F8 == 0xC140:
                st.d[dreg], st.d[ry] = st.d[ry], st.d[dreg]
            elif op & 0xF1F8 == 0xC148:
                st.a[dreg], st.a[ry] = st.a[ry], st.a[dreg]
            else:
                st.d[dreg], st.a[ry] = st.a[ry], st.d[dreg]
            return
        if opmode in (3, 7):                          # adda / suba / cmpa
            size = 2 if opmode == 3 else 4
            ea = self._ea(w, mode, reg, size, st)
            src = self._load(ea, size, st)
            if group == 0xB:                          # cmpa: flags only
                return
            if size == 2:
                src = _sext(src, 16) if isinstance(src, int) else None
            st.a[dreg] = (val_add if group == 0xD else val_sub)(
                st.a[dreg], src)
            return
        size = _size_of(opmode & 3)
        m = _mask(size)
        if opmode < 3:                                # <ea> op Dn -> Dn
            ea = self._ea(w, mode, reg, size, st)
            src = self._load(ea, size, st)
            if group == 0xB:                          # cmp: flags only
                return
            if isinstance(src, int):
                s = src & m
                fns: Dict[int, Callable[[int], Optional[int]]] = {
                    8: lambda v: v | s,
                    9: lambda v: (v - s) & m,
                    0xC: lambda v: v & s,
                    0xD: lambda v: (v + s) & m,
                }
                self._alu_d(st, dreg, size, fns[group])
            else:
                self._set_d(st, dreg, None, size)
            return
        # opmode 4..6: Dn op <ea> -> <ea>, plus the register-pair forms.
        if group == 0xB:
            if mode == 1:                             # cmpm (Ay)+,(Ax)+
                for areg in (reg, dreg):
                    step = 2 if (areg == 7 and size == 1) else size
                    addr = st.a[areg]
                    st.a[areg] = val_add(addr, step)
                    self._record(False, addr, size)
                return
            if mode == 0:                             # eor Dx,Dy
                src = st.d[dreg]
                if isinstance(src, int):
                    s = src & m
                    self._alu_d(st, reg, size, lambda v: v ^ s)
                else:
                    self._set_d(st, reg, None, size)
                return
            ea = self._ea(w, mode, reg, size, st)     # eor Dx,<ea>
            src = st.d[dreg]
            if isinstance(src, int):
                s = src & m
                self._rmw_mem(ea, size, st, lambda v: v ^ s)
            else:
                self._rmw_mem(ea, size, st, lambda v: None)
            return
        if mode in (0, 1):              # addx/subx/abcd/sbcd (Rx dest)
            if mode == 0:
                self._set_d(st, dreg, None, size)
                return
            step_src = 2 if (reg == 7 and size == 1) else size
            addr_src = val_sub(st.a[reg], step_src)   # -(Ay) read
            st.a[reg] = addr_src
            self._record(False, addr_src, size)
            step_dst = 2 if (dreg == 7 and size == 1) else size
            addr_dst = val_sub(st.a[dreg], step_dst)  # -(Ax) RMW
            st.a[dreg] = addr_dst
            self._record(False, addr_dst, size)
            self._record(True, addr_dst, size)
            self._write_mem(addr_dst, size, None, st)
            return
        ea = self._ea(w, mode, reg, size, st)         # or/sub/and/add
        src = st.d[dreg]
        if isinstance(src, int):
            s = src & m
            fns2: Dict[int, Callable[[int], Optional[int]]] = {
                8: lambda v: v | s,
                9: lambda v: (v - s) & m,
                0xC: lambda v: v & s,
                0xD: lambda v: (v + s) & m,
            }
            self._rmw_mem(ea, size, st, fns2[group])
        else:
            self._rmw_mem(ea, size, st, lambda v: None)

    # -- group E: shifts ------------------------------------------------
    def _shift(self, op: int, mode: int, reg: int, szbits: int,
               w: _Words, st: _MutState) -> None:
        if szbits == 3:                               # memory shift by 1
            ea = self._ea(w, mode, reg, 2, st)
            ttype = (op >> 9) & 3
            left = bool(op & 0x0100)
            if ttype == 2:                            # roxl/roxr: X flag
                self._rmw_mem(ea, 2, st, lambda v: None)
            else:
                fn = _shift_fn(ttype, left, 2, 1)
                self._rmw_mem(ea, 2, st, fn)
            return
        size = _size_of(szbits)
        ttype = (op >> 3) & 3
        left = bool(op & 0x0100)
        count: Optional[int]
        if op & 0x0020:                               # count from register
            cval = st.d[(op >> 9) & 7]
            count = (cval & 63) if isinstance(cval, int) else None
        else:
            count = ((op >> 9) & 7) or 8
        if count is None or ttype == 2:               # unknown count / rox
            self._set_d(st, reg, None, size)
            return
        self._alu_d(st, reg, size, _shift_fn(ttype, left, size, count))


def _size_of(bits: int) -> int:
    return {0: 1, 1: 2, 2: 4}[bits]


def _shift_fn(ttype: int, left: bool, size: int,
              count: int) -> Callable[[int], Optional[int]]:
    """Concrete shift/rotate on the low ``size`` bytes (no X flag)."""
    bits = 8 * size
    m = _mask(size)

    def fn(v: int) -> Optional[int]:
        if ttype == 0 and not left:                   # asr: sign fill
            sv = v - (1 << bits) if v & (1 << (bits - 1)) else v
            return (sv >> count) & m
        if ttype in (0, 1):                           # asl / lsl / lsr
            return (v << count) & m if left else (v & m) >> count
        c = count % bits                              # rol / ror
        if c == 0:
            return v & m
        if left:
            return ((v << c) | (v >> (bits - c))) & m
        return ((v >> c) | ((v << (bits - c)) & m)) & m

    return fn


