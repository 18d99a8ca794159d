"""Kinetic stencil propagation kernels: Algorithms 1-5 of the paper.

One *pass* applies, along a stencil direction ``d`` and for every mesh
point ``i`` (periodic), the tridiagonal-shaped update

    psi'[i] = al * psi[i] + bl[i] * psi[i-1] + bu[i] * psi[i+1],

with the even/odd pair-split coefficients of
:mod:`repro.grids.stencil`; a Strang sweep of three passes per direction
realizes ``exp(-i dt T_d / hbar)`` exactly unitarily.  The paper's
optimization sequence is re-expressed in NumPy so that each variant keeps
the *same data-layout and loop-structure idea* while the interpreter/cache
costs play the role of the scalar-code/cache costs of the C++ original:

=============  =======================================================
Variant        Paper analogue
=============  =======================================================
``baseline``   Algorithm 1: AoS layout ``psi[n][i][j][k]``, full work
               array, orbital-outermost loops, generic tridiagonal
               update (both neighbour coefficients multiplied even
               when one is zero), explicit copy-back.
``interchange``Algorithm 3: SoA layout ``psi[i][j][k][n]``, loops
               reordered so the orbital index is innermost/unit-stride,
               in-place update with a saved old value, no work array.
``blocked``    Algorithm 4: adds orbital blocking; each Python-level
               iteration now touches a (k, orbital-block) tile, the
               analogue of keeping ``psi_old`` in cache / distributing
               blocks to more GPU thread blocks.
``collapsed``  Algorithm 5: the three outer loops are collapsed into
               whole-array operations -- the analogue of
               ``target teams distribute collapse(3)`` + ``parallel for
               simd``.  This is the variant executed on the virtual
               GPU device (with ``nowait`` async launch modelling),
               and the one written against the array-API namespace
               ``xp``: it is the kinetic kernel on every substrate.
=============  =======================================================

All variants produce bit-identical results for the same inputs (up to
floating-point reassociation) and are cross-checked in the tests.
``baseline``, ``interchange`` and ``blocked`` are the NumPy execution
schedules of Table I; ``blocked`` and ``collapsed`` share one pair
update (:func:`_pair_update`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.backend import ArrayBackend, get_backend, to_numpy
from repro.constants import M_ELECTRON
from repro.grids.stencil import PairSplitCoefficients, strang_passes
from repro.lfd.wavefunction import WaveFunctionSet
from repro.obs import trace_charge, trace_span


def _pair_indices(n: int, parity: int) -> Tuple[np.ndarray, np.ndarray]:
    """Left/right member indices of the pairs of one pass."""
    left = np.arange(parity, n, 2) % n
    right = (left + 1) % n
    return left, right


# --------------------------------------------------------------------- #
# Algorithm 1: baseline (AoS, work array, orbital-outermost)
# --------------------------------------------------------------------- #
def kin_prop_baseline(  # dclint: disable=DCL006 -- timed by kinetic_step
    aos: np.ndarray, coeff: PairSplitCoefficients, axis: int
) -> None:
    """Baseline kernel on AoS data ``psi[n, ix, iy, iz]`` (Algorithm 1).

    Loops orbitals outermost, sweeps the full grid writing into a separate
    work array (the O(M^D) temporary the paper criticizes) and copies the
    result back.  The generic tridiagonal update multiplies both neighbour
    coefficients even though one of them is exactly zero in a pair pass --
    exactly what a layout-oblivious stencil code does.
    """
    if aos.ndim != 4:
        raise ValueError("AoS data must have shape (norb, nx, ny, nz)")
    norb = aos.shape[0]
    n = aos.shape[1 + axis]
    if coeff.n != n:
        raise ValueError("coefficient length does not match grid axis")
    al, bl, bu = coeff.al, coeff.bl, coeff.bu
    # One O(M^D) work array per call (the temporary Algorithm 2 removes),
    # shared across orbitals rather than reallocated per orbital.
    wrk = np.empty_like(np.moveaxis(aos[0], axis, 0))
    for nn in range(norb):
        q = np.moveaxis(aos[nn], axis, 0)  # view: (n, a, b)
        na = q.shape[1]
        for i in range(n):
            im = (i - 1) % n
            ip = (i + 1) % n
            for j in range(na):
                wrk[i, j, :] = al * q[i, j, :] + bl[i] * q[im, j, :] + bu[i] * q[ip, j, :]
        q[...] = wrk


# --------------------------------------------------------------------- #
# the pair update (Algorithms 4 and 5), in any array-API namespace
# --------------------------------------------------------------------- #
def _pair_update(xp: Any, p: Any, coeff: PairSplitCoefficients, axis: int) -> None:
    """In-place pair update of one pass on ``p`` along ``axis``.

    The pairs of parity ``q`` are ``(q + 2k, q + 2k + 1)``: the left
    members are the strided slice ``q::2``, and so are the right members,
    except that the odd pass's last pair wraps to ``(n - 1, 0)`` (joined
    on with ``concat``).  The left members are copied because their
    update overwrites values the right update still reads; the right
    members are copied too, so both operands are contiguous.  Only
    slicing and slice assignment touch ``p``, so this is the same
    floating-point program as a fancy-index pair update in every
    namespace.
    """
    par = coeff.parity
    lead = (slice(None),) * axis
    bshape = tuple(-1 if d == axis else 1 for d in range(len(p.shape)))
    left = lead + (slice(par, None, 2),)
    right = lead + (slice(par + 1, None, 2),)
    bu = xp.asarray(coeff.bu)
    bl = xp.asarray(coeff.bl)
    bu_l = xp.reshape(bu[par::2], bshape)
    p_l = xp.asarray(p[left], copy=True)
    if par == 0:
        bl_r = xp.reshape(bl[1::2], bshape)
        p_r = xp.asarray(p[right], copy=True)
    else:
        wrap = lead + (slice(0, 1),)
        bl_r = xp.reshape(xp.concat((bl[2::2], bl[:1])), bshape)
        p_r = xp.concat((p[right], p[wrap]), axis=axis)
    p[left] = coeff.al * p_l + bu_l * p_r
    new_r = coeff.al * p_r + bl_r * p_l
    if par == 0:
        p[right] = new_r
    else:
        p[right] = new_r[lead + (slice(None, -1),)]
        p[wrap] = new_r[lead + (slice(-1, None),)]


# --------------------------------------------------------------------- #
# Algorithm 3: loop interchange + in-place update (SoA)
# --------------------------------------------------------------------- #
def kin_prop_interchange(  # dclint: disable=DCL006 -- timed by kinetic_step
    soa: np.ndarray, coeff: PairSplitCoefficients, axis: int
) -> None:
    """Loop-interchanged kernel on SoA data ``psi[ix, iy, iz, n]`` (Algorithm 3).

    The orbital index is innermost (unit stride); the update is performed
    in place pencil by pencil, with the old pair value held in a small
    temporary (the ``psi_old`` trick).  No O(M^D) work array is allocated.
    """
    if soa.ndim != 4:
        raise ValueError("SoA data must have shape (nx, ny, nz, norb)")
    p = np.moveaxis(soa, axis, 0)  # (n, a, b, norb) view
    n, na, nb, _ = p.shape
    if coeff.n != n:
        raise ValueError("coefficient length does not match grid axis")
    left, right = _pair_indices(n, coeff.parity)
    al = coeff.al
    # The ``psi_old`` pair buffer is preallocated once per sweep and
    # refilled in place (Alg. 2 memory reuse); it plays the role of the
    # register-held old value of the paper's in-place update.
    psi_old = np.empty(p.shape[-1], dtype=p.dtype)
    for j in range(na):
        for k in range(nb):
            pencil = p[:, j, k, :]  # (n, norb) view
            for l, r in zip(left, right):
                psi_old[:] = pencil[l]
                pencil[l] = al * psi_old + coeff.bu[l] * pencil[r]
                pencil[r] = al * pencil[r] + coeff.bl[r] * psi_old


# --------------------------------------------------------------------- #
# Algorithm 4: orbital blocking
# --------------------------------------------------------------------- #
def kin_prop_blocked(  # dclint: disable=DCL006 -- timed by kinetic_step
    soa: np.ndarray,
    coeff: PairSplitCoefficients,
    axis: int,
    block_size: Optional[int] = None,
) -> None:
    """Blocked kernel (Algorithm 4): per (j, orbital-block) tile updates.

    Each Python-level iteration updates a full (pairs, k, block) tile,
    mirroring the cache/register blocking of the paper while still keeping
    the outer plane loop explicit.  ``block_size=None`` resolves the tile
    width from the active :class:`~repro.tuning.profile.TuningProfile`
    (the ``lfd.kin_prop`` tunable), so default callers get the persisted
    per-machine winner instead of a hard-coded shape.
    """
    if soa.ndim != 4:
        raise ValueError("SoA data must have shape (nx, ny, nz, norb)")
    if block_size is None:
        from repro.tuning.profile import get_active_profile

        block_size = int(
            get_active_profile().params_for("lfd.kin_prop")["block_size"]
        )
    if block_size < 1:
        raise ValueError("block_size must be positive")
    p = np.moveaxis(soa, axis, 0)  # (n, a, b, norb) view
    n, na, _, norb = p.shape
    if coeff.n != n:
        raise ValueError("coefficient length does not match grid axis")
    nblocks = (norb + block_size - 1) // block_size
    for j in range(na):
        plane = p[:, j]  # (n, b, norb) view
        for ib in range(nblocks):
            b0 = ib * block_size
            b1 = min(b0 + block_size, norb)
            _pair_update(np, plane[..., b0:b1], coeff, 0)


# --------------------------------------------------------------------- #
# Algorithm 5: fully collapsed (the GPU kernel)
# --------------------------------------------------------------------- #
def kin_prop_collapsed(  # dclint: disable=DCL006 -- timed by kinetic_step
    xp: Any, psi: Any, coeff: PairSplitCoefficients, axis: int
) -> None:
    """Collapsed kernel (Algorithm 5): whole-array pair update, in place.

    All plane/orbital parallelism is exposed at once -- the analogue of
    ``collapse(3)`` over teams with ``parallel for simd`` inside.  This is
    the payload executed by the virtual GPU, and the one kinetic body
    that runs in any array-API namespace ``xp`` (``psi`` is an SoA array
    of that namespace).
    """
    if len(psi.shape) != 4:
        raise ValueError("SoA data must have shape (nx, ny, nz, norb)")
    if coeff.n != psi.shape[axis]:
        raise ValueError("coefficient length does not match grid axis")
    _pair_update(xp, psi, coeff, axis)


#: Registry of kernel variants (name -> in-place pass kernel).  The NumPy
#: schedules take ``(data, coeff, axis)`` (``blocked`` also accepts
#: ``block_size=``); ``collapsed`` takes the namespace first,
#: ``(xp, soa, coeff, axis)``.
KIN_PROP_VARIANTS: Dict[str, Callable[..., None]] = {
    "baseline": kin_prop_baseline,
    "interchange": kin_prop_interchange,
    "blocked": kin_prop_blocked,
    "collapsed": kin_prop_collapsed,
}


def kinetic_step(
    wf: WaveFunctionSet,
    dt: float,
    theta: Sequence[float] = (0.0, 0.0, 0.0),
    variant: str = "collapsed",
    block_size: Optional[int] = None,
    mass: float = M_ELECTRON,
    backend: Union[str, ArrayBackend, None] = None,
) -> None:
    """Propagate ``wf`` by ``exp(-i dt T / hbar)`` using a chosen kernel variant.

    The three Cartesian kinetic operators commute exactly (tensor-product
    structure), so the full step is the product of per-direction Strang
    sweeps even(dt/2) odd(dt) even(dt/2).  ``theta`` gives the Peierls
    phase per bond, h_d * A_d / c, along each axis (velocity-gauge vector
    potential; cf. Eq. (2)).

    The ``baseline`` variant converts to AoS and back around the sweep --
    benchmark code that wants to time the kernel alone should call
    :func:`kin_prop_baseline` directly on pre-converted data.

    ``block_size`` only affects the ``blocked`` variant; ``None`` defers
    to :func:`kin_prop_blocked`, which resolves the tile width from the
    active TuningProfile.

    ``backend`` selects the array-API substrate.  ``collapsed`` runs in
    that namespace, with ``asarray``/``to_numpy`` at the kernel boundary
    -- the shape a device-transfer boundary takes; on NumPy the update
    happens in ``wf.psi`` itself.  The other variants are the NumPy
    execution schedules of Table I, so any other namespace runs
    ``collapsed`` whatever ``variant`` says.
    """
    if variant not in KIN_PROP_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; options: {sorted(KIN_PROP_VARIANTS)}")
    b = get_backend(backend)
    if b.xp is not np:
        variant = "collapsed"
    with trace_span("kin_prop", "kinetic", variant=variant, backend=b.name):
        # 9 pair-split passes, 14 real flops and 3 complex-word streams
        # per point-orbital per pass (see repro.lfd.costs.kin_prop_pass).
        pts = wf.grid.npoints * wf.norb
        trace_charge(9.0 * 14.0 * pts, 9.0 * 3.0 * wf.psi.itemsize * pts)
        if variant == "collapsed":
            psi = b.asarray(wf.psi)
            for axis in range(3):
                n = wf.grid.shape[axis]
                h = wf.grid.spacing[axis]
                for coeff in strang_passes(n, h, dt, theta=theta[axis], mass=mass):
                    kin_prop_collapsed(b.xp, psi, coeff, axis)
            if psi is not wf.psi:
                wf.psi[...] = to_numpy(psi)
            return
        if variant == "baseline":
            data = wf.to_aos()
            for axis in range(3):
                n = wf.grid.shape[axis]
                h = wf.grid.spacing[axis]
                for coeff in strang_passes(n, h, dt, theta=theta[axis], mass=mass):
                    kin_prop_baseline(data, coeff, axis)
            wf.from_aos(data)
            return
        kernel = KIN_PROP_VARIANTS[variant]
        for axis in range(3):
            n = wf.grid.shape[axis]
            h = wf.grid.spacing[axis]
            for coeff in strang_passes(n, h, dt, theta=theta[axis], mass=mass):
                if variant == "blocked":
                    kernel(wf.psi, coeff, axis, block_size=block_size)
                else:
                    kernel(wf.psi, coeff, axis)
