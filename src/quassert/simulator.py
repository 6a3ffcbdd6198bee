"""Embedded density-matrix simulator with optional parametric noise.

:func:`evolve`, :func:`exact_distribution`, :func:`pauli_distributions` and
:func:`sample` are the one execution seam the protocols call; the noise model
is passed per call.  Distributions and counts in the seam are plain arrays;
only the exact oracles users also pass as expected values,
:func:`exact_distribution` and :func:`circuit_to_choi`, return validated types.

One channel kernel evolves a stack of density matrices of shape
``(..., 2^n, 2^n)`` and never forms a 2^n x 2^n operator: each k-qubit gate
and its noise are one 4^k x 4^k Liouville superoperator (Wood, Biamonte and
Cory, QIC 15, 759, 2015).  The channel of an angle-free gate is built once per
gate, size and noise model; a rotation's once per gate.  :func:`_blocks`
groups those channels into blocks on at most two qubits, fusing gates as
state-vector simulators do on registers of five or more qubits, and one
loop, :func:`_evolve_mat`, applies every block, as described there.
:func:`evolve` and :func:`pauli_distributions` accept a ``(B, 2^n, 2^n)``
stack as well as a DensityMatrix, which is the B = 1 case of the same code.
A stack stays raw: it is validated where it enters as a DensityMatrix, not
after every gate.  Process tomography evolves Choi matrices so (:func:`_choi_mat`),
and ``proj`` its validated ground state, of which it asks only the diagonal
(``evolve(..., diagonal=True)``).

Noise is gate-attached: after every gate a depolarizing channel acts on that
gate's qubits, and amplitude damping additionally acts on single-qubit gate
targets.  Readout bit flips, independent per bit, are folded into outcome
probabilities (:func:`apply_readout`, and the Pauli-basis POVM of
:func:`pauli_povm`, whose basis rotations are noisy gates too).

Sampling is reproducible: :func:`sample` draws all of an assertion's counts
from one generator built from its seed, and :func:`derive_seed` derives
those seeds, so results do not depend on execution order.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

from quassert import qmath
from quassert.qcore import (
    ChoiMatrix,
    Circuit,
    DensityMatrix,
    GateOp,
    OutcomeDistribution,
    _as_int,
    _is_real,
    expanded_gate_matrix,
)
from quassert.qmath import NumericError

MAX_SHOTS = 2**63 - 1  # numpy draws counts as int64


def check_shots(shots: int, name: str = "shots") -> int:
    """``shots`` as an int; ValueError unless it is a shot count the sampler can draw."""
    shots = _as_int(shots, name)
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"{name} must be in [1, 2**63 - 1], got {shots}")
    return shots


def check_seed(seed: int) -> int:
    """``seed`` as an int; ValueError unless it can seed a generator: [0, 2**64)."""
    seed = _as_int(seed, "seed")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def _is_unit_real(value) -> bool:
    """True iff ``value`` is a real number, not a bool, in [0, 1]."""
    return _is_real(value) and 0.0 <= value <= 1.0


def check_threshold(threshold: float) -> float:
    """``threshold`` as a float; ValueError unless it is a real number (not a bool) in [0, 1]."""
    if not _is_unit_real(threshold):
        raise ValueError(f"threshold must be a real number in [0, 1], got {threshold!r}")
    return float(threshold)


@dataclass(frozen=True)
class NoiseModel:
    """Per-gate noise strengths; all probabilities in [0, 1].

    ``depolarizing_1q``/``depolarizing_2q`` replace the state on the gate's
    qubits by the maximally mixed one with the given probability;
    ``amplitude_damping`` is the gamma of a damping channel on 1-qubit gate
    targets; ``readout_flip`` flips each measured bit independently.
    """

    depolarizing_1q: float = 0.0
    depolarizing_2q: float = 0.0
    amplitude_damping: float = 0.0
    readout_flip: float = 0.0

    def __post_init__(self) -> None:
        for name in ("depolarizing_1q", "depolarizing_2q", "amplitude_damping", "readout_flip"):
            value = getattr(self, name)
            if not _is_unit_real(value):
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def check_noise(noise: NoiseModel | None) -> None:
    """Raise ValueError unless ``noise`` is None or a NoiseModel."""
    if noise is not None and not isinstance(noise, NoiseModel):
        raise ValueError(f"noise must be a NoiseModel or None, got {type(noise).__name__}")


# Artifact default for a noisy run; representative of a 27-qubit-era device.
DEFAULT_NOISE = NoiseModel(
    depolarizing_1q=0.001,
    depolarizing_2q=0.01,
    amplitude_damping=0.001,
    readout_flip=0.02,
)


def derive_seed(*parts: object) -> int:
    """Stable 64-bit stream seed from labeled parts; numpy integers hash as ints."""
    payload = "\x1f".join(repr(int(p) if isinstance(p, np.integer) else p) for p in parts)
    return int.from_bytes(hashlib.sha256(payload.encode("utf-8")).digest()[:8], "little")


@functools.lru_cache(maxsize=64)
def _noise_superop(k: int, noise: NoiseModel) -> np.ndarray:
    """The noise after a k-qubit gate as a read-only 4^k x 4^k superoperator S,
    row-major: vec(rho)[d i + j] = rho[i, j], and S vec(rho) is the noisy vec(rho).

    Depolarizing, (1 - p) rho + p tr(rho) I/d, is (1 - p) I + (p/d) |vec I><vec I|.
    A one-qubit gate's amplitude damping, K0 = diag(1, sqrt(1-gamma)) and
    K1 = sqrt(gamma)|0><1|, follows it as K0 (x) K0* + K1 (x) K1*."""
    d = 2**k
    p = noise.depolarizing_1q if k == 1 else noise.depolarizing_2q
    vec_identity = np.eye(d, dtype=np.complex128).reshape(-1)
    superop = (1.0 - p) * np.eye(d * d) + (p / d) * np.outer(vec_identity, vec_identity)
    if k == 1:
        k0 = np.diag([1.0, np.sqrt(1 - noise.amplitude_damping)])
        k1 = np.array([[0.0, np.sqrt(noise.amplitude_damping)], [0.0, 0.0]])
        superop = (np.kron(k0, k0) + np.kron(k1, k1)) @ superop
    superop.flags.writeable = False
    return superop


@functools.lru_cache(maxsize=64)
def _superop(name: str, k: int, angle: float | None, noise: NoiseModel | None) -> np.ndarray:
    """u (x) u* for the table unitary u of the gate on local bits 0..k-1, then its
    noise, read-only.  :func:`_gate_superop` keys only angle-free gates here, so
    the cache holds one entry per (name, k, noise model)."""
    u = expanded_gate_matrix(GateOp(name, tuple(range(k)), angle), k)
    superop = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(4**k, 4**k)
    superop = superop if noise is None else _noise_superop(k, noise) @ superop
    superop.flags.writeable = False
    return superop


def _gate_superop(op: GateOp, noise: NoiseModel | None) -> np.ndarray:
    """The gate's channel; local bit m is op.qubits[m].  A rotation's is built
    fresh, past the cache: each angle would be a new key."""
    build = _superop if op.angle is None else _superop.__wrapped__
    return build(op.name, len(op.qubits), op.angle, noise)


# Fusing gates into two-qubit blocks pays from this register size on: per gate,
# the fused kernel took 0.55-0.82 of the gate-by-gate one's time at n = 5-7, but
# 0.91-1.07 at n = 1-4 (median over 20 random circuits of depth 5n per width,
# noiseless and noisy).  That small gain would move bits: on small registers
# noiseless states often sit at exact ties such as p = 0.5, where a multinomial
# draw follows a probability's last bit.  So below it each gate stays its own
# block, and evolution keeps the gate-by-gate bits.
_FUSE_FROM_QUBITS = 5


def _pair_gathers() -> tuple[np.ndarray, np.ndarray]:
    """Flat-index gathers for a two-qubit channel's 16 x 16 matrix, whose index
    4 i + j reads row bits i = i0 + 2 i1 and column bits j = j0 + 2 j1:
    :func:`_on_pair`'s from a (4, 4, 4, 4) outer product of one-qubit channels,
    and ``s.take(swap)``, the channel s with its two local bits exchanged."""
    r = np.arange(16)
    i, j = r >> 2, r & 3
    bit0, bit1 = 2 * (i & 1) + (j & 1), 2 * (i >> 1) + (j >> 1)  # one-qubit channel indices
    swapped = 4 * ((i >> 1) | (i & 1) << 1) + ((j >> 1) | (j & 1) << 1)
    embed = 64 * bit0[:, None] + 16 * bit0[None, :] + 4 * bit1[:, None] + bit1[None, :]
    return embed, 16 * swapped[:, None] + swapped[None, :]


_EMBED_PAIR, _SWAP_PAIR = _pair_gathers()
_IDENTITY_1Q = np.eye(4, dtype=np.complex128)


def _on_pair(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The one-qubit channels ``first`` on local bit 0 and ``second`` on local
    bit 1 as one two-qubit channel: products of their entries, no sums, so exact."""
    return np.multiply.outer(first, second).take(_EMBED_PAIR)


def _blocks(
    ops: tuple[GateOp, ...], noise: NoiseModel | None, n: int
) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """``(qubits, channel)`` blocks on at most two qubits whose product, in
    order, is the circuit's channel; each gate's channel from :func:`_gate_superop`.

    From ``_FUSE_FROM_QUBITS`` qubits on, a qubit's run of one-qubit channels is
    composed and folded into the next two-qubit gate on it, consecutive
    two-qubit gates on one pair share a block, a trailing run joins the last
    block on its qubit, and a qubit no two-qubit gate touches gets a block of
    its own.  Channels on disjoint qubits commute, gate noise included, so the
    product is the circuit's up to rounding."""
    if n < _FUSE_FROM_QUBITS:
        return [(op.qubits, _gate_superop(op, noise)) for op in ops]
    pairs, channels = [], []
    runs = {}  # qubit -> the composed one-qubit channels since its last block
    latest = {}  # qubit -> index of the last two-qubit block on it
    for op in ops:
        superop = _gate_superop(op, noise)
        if len(op.qubits) == 1:
            q = op.qubits[0]
            runs[q] = superop if q not in runs else superop @ runs[q]
            continue
        a, b = op.qubits
        i = latest.get(a)
        if i is None or i != latest.get(b):
            i = latest[a] = latest[b] = len(pairs)
            pairs.append(op.qubits)
            channels.append(None)
        elif pairs[i] != op.qubits:  # the block's pair, named in the other order
            a, b, superop = b, a, superop.take(_SWAP_PAIR)
        if a in runs or b in runs:
            superop = superop @ _on_pair(runs.pop(a, _IDENTITY_1Q), runs.pop(b, _IDENTITY_1Q))
        channels[i] = superop if channels[i] is None else superop @ channels[i]
    for q, run in runs.items():
        if q not in latest:
            pairs.append((q,))
            channels.append(run)
            continue
        i = latest[q]
        first, second = (run, _IDENTITY_1Q) if pairs[i][0] == q else (_IDENTITY_1Q, run)
        channels[i] = _on_pair(first, second) @ channels[i]
    return list(zip(pairs, channels))


@functools.lru_cache(maxsize=32)
def _sub_channel(k: int, start: tuple[int, ...], done: tuple[int, ...]) -> np.ndarray:
    """The flat index, read-only, of the (rows, columns) part of a k-qubit
    block's channel that it applies when its local bits ``start`` join and
    ``done`` finish there.  Row or column 2^k i + j of the channel reads local
    bit m's row bit as bit m of i, its column bit as bit m of j.  The columns
    are those whose row and column bits are 0 on ``start``, the rows those
    whose row and column bits agree on ``done``, each ascending."""
    r = np.arange(4**k)
    rows = cols = np.ones(4**k, bool)
    for m in done:
        rows = rows & (r >> (k + m) & 1 == r >> m & 1)
    for m in start:
        cols = cols & ((r >> (k + m) | r >> m) & 1 == 0)
    index = 4**k * np.flatnonzero(rows)[:, None] + np.flatnonzero(cols)
    index.flags.writeable = False
    return index


@functools.lru_cache(maxsize=512)
def _block_plan(
    n: int, qubits: tuple[int, ...], start: tuple[int, ...], done: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...], np.ndarray | None]:
    """For a block on ``qubits`` of an n-qubit register at which the local bits
    ``start`` join and ``done`` finish: the bit axes it reads, in order, the
    bit axes it leaves in their place, and :func:`_sub_channel`'s index of the
    part of its channel that it applies, or None for all.

    The block's bit axes are its row bits, then its column bits, ``qubits[0]``
    last in each, as :func:`_evolve_mat` moves them.  The channel's columns
    and rows enumerate, in order, the axes read and left; a finished bit
    leaves its row bit's axis."""
    k = len(qubits)
    front = [half + n - q for half in (0, n) for q in reversed(qubits)]
    local = [k - 1 - p for p in range(k)] * 2  # the local bit at each position of front
    fed = tuple(a for a, m in zip(front, local) if m not in start)
    left = tuple(a for p, (a, m) in enumerate(zip(front, local)) if p < k or m not in done)
    return fed, left, _sub_channel(k, start, done) if start or done else None


@functools.lru_cache(maxsize=8)
def _live_entries(n: int, cold: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """The flat indices, ascending and read-only, of a 2^n x 2^n matrix's
    entries whose row and column bits are 0 on each qubit q with bit q of
    ``cold`` set, and the bit axes (qubit q's row bit n - q, column bit 2n - q)
    that enumerate them, in order: those of the other qubits."""
    entries = np.flatnonzero(np.arange(4**n) & (cold << n | cold) == 0)
    entries.flags.writeable = False
    return entries, tuple(a for a in range(1, 2 * n + 1) if not cold >> (-a % n) & 1)


@functools.lru_cache(maxsize=512)
def _diagonal_entries(n: int, layout: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray | None]:
    """The flat indices, read-only, at which a (B,) + (2,) * len(layout) view
    with the bit axes ``layout`` (qubit q's row bit n - q, column bit 2n - q)
    holds each outcome's diagonal entry, outcomes ascending: every axis reads
    the outcome's bit on its qubit.  Then None when every qubit has an axis,
    else the outcomes held, read-only: those whose bits are 0 on the qubits
    without one."""
    outcomes = np.arange(2**n)
    qubits = [-a % n for a in layout]
    place = 2 ** np.arange(len(layout))[::-1]  # each axis's weight in a flat index
    entries = (outcomes[:, None] >> np.array(qubits, np.intp) & 1) @ place
    bare = (1 << n) - 1 & ~sum(1 << q for q in set(qubits))
    live = np.flatnonzero(outcomes & bare == 0) if bare else None
    if live is not None:
        entries = entries[live]
        live.flags.writeable = False
    entries.flags.writeable = False
    return entries, live


def _evolve_mat(
    mats: np.ndarray, c: Circuit, noise: NoiseModel | None, diagonal: bool = False
) -> np.ndarray:
    """Run every matrix of a (..., 2^n, 2^n) stack through the circuit, block by
    block of :func:`_blocks`; with ``diagonal``, return only the real (..., 2^n)
    computational-basis diagonals, bit for bit those of the full evolution.

    The stack is viewed as (B,) + (2,) * 2n: qubit q's row bit is axis n - q,
    its column bit 2n - q.  A block moves the bit axes it reads
    (:func:`_block_plan`: its row bits, then its column bits, ``qubits[0]``
    last in each) in front of the other axes, which keep their order: one
    transposed copy into a work buffer, skipped when those bits are in front
    already, and one (rows, columns) @ (B, columns, M) matmul into the other,
    so the stack keeps the last block's axis order up to one final copy.  B is
    a matmul batch axis: a matrix evolves to the same bits alone or in a stack.
    The full evolution reads and leaves every bit axis of each block and
    applies its whole channel.

    With ``diagonal`` from ``_FUSE_FROM_QUBITS`` qubits on, each qubit is
    evolved only in its light cone, between its first and last block.  A
    qubit is cold when its row and column bits are 0 in every nonzero entry
    of the stack, as every qubit of the ground state is.  It carries no axes
    until its first block, which applies only the channel columns whose bits
    on it are 0: the full evolution's sums without their zero terms.  After
    its last block a qubit's coherences are never read, so that block
    computes only the channel rows whose row and column bits agree on it, and
    the qubit keeps one bit axis, labelled n - q.  A product the cone leaves
    fewer than 4 columns per matrix runs zero-padded to 4, since OpenBLAS
    rounds a product of 1-3 columns differently from the same columns inside
    the full evolution's wide products; M is a power of two, so 4 is enough.

    Every diagonal is read from the last block's axes by selection alone
    (:func:`_diagonal_entries`): a qubit that kept both bit axes has its
    diagonal taken, and a cold qubit that no block touched reads bit 0."""
    n = c.n_qubits
    blocks = _blocks(c.ops, noise, n)
    b = mats.size >> 2 * n
    view = mats.reshape(b, 4**n)
    layout = tuple(range(1, 2 * n + 1))  # the bit axis at each position of view
    start = done = [()] * len(blocks)  # each block's local bits that join and finish
    cone = diagonal and n >= _FUSE_FROM_QUBITS
    if cone:
        bits = int(np.bitwise_or.reduce(np.flatnonzero(view.any(axis=0))))
        cold = ~(bits | bits >> n) & ((1 << n) - 1)  # bit q set: qubit q is cold
        first, last = {}, {}
        for i, (qubits, _) in enumerate(blocks):
            for q in qubits:
                first.setdefault(q, i)
                last[q] = i
        start, done = [()] * len(blocks), [()] * len(blocks)
        for q, i in first.items():
            if cold >> q & 1:
                start[i] += (blocks[i][0].index(q),)
        for q, i in last.items():
            done[i] += (blocks[i][0].index(q),)
        if cold:
            entries, layout = _live_entries(n, cold)
            view = view.take(entries, axis=1)
    view = view.reshape((b,) + (2,) * len(layout))
    work = [np.empty(b * 4**n, np.complex128)[: view.size].reshape(view.shape)
            for _ in range(2)]  # view: mats or work[0]
    for (qubits, channel), begin, end in zip(blocks, start, done):
        fed, left, index = _block_plan(n, qubits, begin, end)
        if layout[: len(fed)] != fed:
            moved = fed + tuple([axis for axis in layout if axis not in fed])
            np.copyto(work[1], view.transpose([0] + [layout.index(a) + 1 for a in moved]))
            work.reverse()
            view, layout = work[0], moved
        if index is not None:  # a qubit joins or finishes: re-cut both work buffers
            channel = channel.take(index)
            layout = left + layout[len(fed):]
            work = [w.base[: b << len(layout)].reshape((b,) + (2,) * len(layout)) for w in work]
        operand = view.reshape(b, channel.shape[1], -1)
        out = work[1].reshape(b, len(channel), -1)
        width = operand.shape[2]
        if width < 4 and cone:  # the 4-column floor
            padded = np.zeros(operand.shape[:2] + (4,), np.complex128)
            padded[..., :width] = operand
            wide = np.empty(out.shape[:2] + (4,), np.complex128)
            np.matmul(channel, padded, out=wide)
            out[...] = wide[..., :width]
        else:
            np.matmul(channel, operand, out=out)
        work.reverse()
        view = work[0]
    if not diagonal:
        plain = [0] + [layout.index(a) + 1 for a in range(1, 2 * n + 1)]
        return view.transpose(plain).reshape(mats.shape)
    entries, live = _diagonal_entries(n, layout)
    held = view.reshape(b, -1).real.take(entries, axis=1)
    if live is None:
        return held.reshape(mats.shape[:-1])
    probs = np.zeros((b, 2**n))  # a cold qubit that no block touched reads bit 0
    probs[:, live] = held
    return probs.reshape(mats.shape[:-1])


def _stack_of(state: DensityMatrix | np.ndarray) -> tuple[np.ndarray, int]:
    """The complex128 (B, 2^n, 2^n) stack of a state and its n, B >= 1; a DensityMatrix is B = 1."""
    if isinstance(state, DensityMatrix):
        return state.mat[None], state.n_qubits
    try:
        state = np.asarray(state, dtype=np.complex128)
    except ValueError as exc:  # a ragged nesting
        raise qmath.DimensionError(f"expected a (B, 2^n, 2^n) stack: {exc}") from None
    n = state.shape[-1].bit_length() - 1 if state.ndim == 3 else 0
    if n < 1 or len(state) == 0 or state.shape[1:] != (2**n, 2**n):
        raise qmath.DimensionError(f"expected a (B, 2^n, 2^n) stack, got shape {state.shape}")
    return state, n


def evolve(
    state: DensityMatrix | np.ndarray,
    c: Circuit,
    noise: NoiseModel | None = None,
    diagonal: bool = False,
) -> DensityMatrix | np.ndarray:
    """Run the state through the circuit, block by block, with optional noise.

    ``state`` is a DensityMatrix or a (B, 2^n, 2^n) stack of density
    matrices.  The circuit runs as the channel blocks of :func:`_blocks`: one
    gate each below ``_FUSE_FROM_QUBITS`` qubits, fused gates on at most two
    qubits from there on.  A stack is evolved as a whole and returned as a new
    complex128 stack: unlike a DensityMatrix result it is neither validated nor
    symmetrized.  With ``diagonal`` only the real computational-basis
    diagonals are returned, unnormalized: shape (B, 2^n) for a stack, (2^n,)
    for a DensityMatrix, bit for bit the diagonal of the full evolution, of
    which from ``_FUSE_FROM_QUBITS`` qubits on only each qubit's light cone is
    evolved (:func:`_evolve_mat`).
    """
    mats, n = _stack_of(state)
    if n != c.n_qubits:
        raise qmath.DimensionError(f"evolve: state on {n} qubit(s) vs circuit on {c.n_qubits}")
    mats = _evolve_mat(mats, c, noise, diagonal) if c.ops or diagonal else mats.copy()
    if not isinstance(state, DensityMatrix):
        return mats
    return mats[0] if diagonal else DensityMatrix(n, mats[0])


# Probabilities below this are rounding residue, zeroed: numpy's binomial draws
# no random number for p == 0 but does for any p > 0, so otherwise the order of
# a sum, which decides what rounds to exactly zero, would steer a seed's draws.
PROBABILITY_FLOOR = 1e-15


def _normalized(probs: np.ndarray) -> np.ndarray:
    """(..., 2^n) probabilities with sub-floor entries zeroed and each row rescaled to sum 1."""
    low = float(probs.min())
    if low < -1e-9:
        raise NumericError(f"negative outcome probability {low:.3e}")
    probs[probs < PROBABILITY_FLOOR] = 0.0
    return probs / probs.sum(axis=-1, keepdims=True)


def exact_distribution(state: DensityMatrix) -> OutcomeDistribution:
    """Infinite-shot oracle: the computational-basis diagonal of the state."""
    return OutcomeDistribution(state.n_qubits, _normalized(state.mat.diagonal().real.copy()))


@functools.lru_cache(maxsize=8)
def _omega(n: int) -> np.ndarray:
    """|Omega><Omega|, Omega = sum_i |i> (x) |i>, as a read-only (1, 4^n, 4^n) stack."""
    omega = np.eye(2**n, dtype=np.complex128).reshape(-1)
    mat = np.outer(omega, omega)[None]
    mat.flags.writeable = False
    return mat


def _choi_mat(c: Circuit, noise: NoiseModel | None = None) -> np.ndarray:
    """The circuit's raw Choi matrix under ``noise``: the circuit run on the output
    half of |Omega><Omega| (gates on qubits 0..n-1 of 2n), input factor first."""
    return evolve(_omega(c.n_qubits), Circuit(2 * c.n_qubits, c.ops), noise)[0]


def circuit_to_choi(c: Circuit) -> ChoiMatrix:
    """Choi matrix of the circuit's channel, validated (:func:`_choi_mat`)."""
    choi = ChoiMatrix(c.n_qubits, _choi_mat(c))
    dev = np.max(np.abs(choi.input_marginal() - np.eye(c.dim)))
    if dev > 1e-6:
        raise NumericError(f"circuit Choi matrix lost trace preservation: {dev:.3e}")
    return choi


def apply_readout(probs: np.ndarray, noise: NoiseModel | None) -> np.ndarray:
    """(..., 2^n) outcome probabilities as read out: each bit flips independently
    with ``readout_flip`` (the tensor-product readout model), which is
    distribution-identical to flipping the bits of every drawn shot."""
    if noise is None or noise.readout_flip == 0.0:
        return probs
    p, n = noise.readout_flip, probs.shape[-1].bit_length() - 1
    grid = probs.reshape(probs.shape[:-1] + (2,) * n)
    for axis in range(-n, 0):
        grid = (1.0 - p) * grid + p * np.flip(grid, axis=axis)
    return grid.reshape(probs.shape)


# One-qubit circuits rotating the X, Y and Z bases onto the computational basis.
_PAULI_ROTATIONS = [Circuit(1, tuple(GateOp(g, (0,)) for g in gates))
                    for gates in (("h",), ("sdg", "h"), ())]


@functools.lru_cache(maxsize=64)
def pauli_povm(noise: NoiseModel | None) -> np.ndarray:
    """E[letter, o], read-only, shape (3, 2, 2, 2): a qubit in state rho reads bit o
    in basis "XYZ"[letter] with probability tr(rho E[letter, o]), noisy basis
    rotation and readout flips included.  Built once per noise model by
    running the four matrix units |i><j| through each rotation."""
    units = np.eye(4, dtype=np.complex128).reshape(4, 2, 2)  # unit 2i + j is |i><j|
    reads = apply_readout(np.array([np.diagonal(_evolve_mat(units, rotation, noise), 0, 1, 2)
                                    for rotation in _PAULI_ROTATIONS]), noise)
    # reads[letter, 2i + j, o] = tr(|i><j| E[letter, o]) = E[letter, o][j, i]
    povm = reads.transpose(0, 2, 1).reshape(3, 2, 2, 2).swapaxes(-1, -2)
    povm.flags.writeable = False
    return povm


def pauli_distributions(
    state: DensityMatrix | np.ndarray, noise: NoiseModel | None = None
) -> np.ndarray:
    """Outcome probabilities of all 3^n product Pauli-basis measurements, as read out.

    Row k measures qubit q in basis "XYZ"[(k // 3^q) % 3], so qubit 0's
    letter varies fastest; column o is the little-endian outcome index.  A
    DensityMatrix gives a (3^n, 2^n) array; a (B, 2^n, 2^n) stack gives a
    (B, 3^n, 2^n) one.  Rotations, noise and readout flips act per qubit, so
    setting k reads o with probability tr(rho (x)_q E[k_q, o_q]) for the POVM
    E of :func:`pauli_povm`: the n-fold tensor power of the map
    rho -> tr(rho E[letter, o]), applied by :func:`quassert.qmath.kron_map`.
    """
    mats, n = _stack_of(state)
    probs = _normalized(qmath.kron_map(pauli_povm(noise).swapaxes(-1, -2), mats, n).real)
    return probs[0] if isinstance(state, DensityMatrix) else probs


def sample(probs: np.ndarray, shots: int, seed: int) -> np.ndarray:
    """int64 counts of ``shots`` draws from each row of (..., 2^n) probabilities.

    One generator built from ``seed`` draws every row in one multinomial
    call, which is distribution-identical to per-shot sampling.
    """
    shots = check_shots(shots)
    seed = check_seed(seed)
    probs = np.asarray(probs, dtype=np.float64)
    n = probs.shape[-1].bit_length() - 1 if probs.ndim else 0
    if n < 1 or probs.shape[-1] != 2**n:
        raise qmath.DimensionError(f"sample needs rows of 2^n probabilities, got {probs.shape}")
    # numpy rejects negative and NaN entries but draws an excess sum's remainder
    # into the last bin, so every row's sum is checked here.
    off = float(np.max(np.abs(probs.sum(axis=-1) - 1.0)))
    if off > 1e-9:
        raise ValueError(f"probabilities must sum to 1, a row is off by {off:.3g}")
    return np.random.default_rng(np.uint64(seed)).multinomial(shots, probs)
