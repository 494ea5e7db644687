"""Asymptotic sets of Lindblad dynamics and the six-class classification.

Every asymptotic set is held as the image A = P∞(D) of the state set D
under one linear map P∞ on vectorized operators:

  * autonomous dynamics   -- the spectral projector onto the Liouvillian
                             kernel, which fixes every stationary state,
  * non-autonomous dynamics -- the converged total propagator.

A singleton set also carries its state P∞(I/d).  Classification into the
six classes is driven by the PT margin over probe states: a singleton is
placed by the trichotomy directly; a larger set is probed by images of
deterministic product and Bell states and of random states.  The margin
is concave along mixtures, so its minimum sits at an extreme point; a
seesaw from each product and Bell state searches for it.  Class 6 (every
member entangled) is claimed only with a bound on all of A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .dynamics import (
    DEFAULT_OPTS,
    ConstantRate,
    ExponentialRate,
    Generator,
    SolverOptions,
    apply_map,
    liouvillian_matrix,
    make_generator,
    propagator_matrices,
    unvec,
    vec,
)
from .errors import (
    BadParams,
    Inconclusive,
    NoTraceOneElement,
    NotConverged,
    OscillatoryAsymptotics,
    UnsupportedDimension,
)
from .geometry import classify_region, min_pt_eigenvalue
from .operators import (
    EYE2,
    SMINUS,
    SZ,
    bell_vectors,
    single_qubit_probe_vectors,
    two_qubit_paulis,
)
from .states import QState, new_state, trace_distance

DEFAULT_CLASS_TOL = 1e-7
DEFAULT_KERNEL_TOL = 1e-9
DEFAULT_CONVERGENCE_TOL = 1e-8
DEFAULT_NONAUTONOMOUS_HORIZON = 60.0
DEFAULT_N_PROBES = 50

CLASS4_MIN_C = np.log(3.0) + 0.5
CLASS6_MIN_C = 5.0


@dataclass(frozen=True)
class AsymptoticSet:
    cardinality: str  # one | many
    dims: tuple[int, int]
    map_matrix: np.ndarray = field(repr=False)  # P∞; the set is P∞(D)
    state: QState | None = None  # P∞(I/d), singletons only
    diagnostics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TheoremClass:
    class_id: int
    cardinality: str
    min_margin: float
    max_margin: float
    min_probe: str
    max_probe: str
    tol: float
    probes: tuple[tuple[str, float], ...]


def stationary_set_autonomous(g: Generator, tol: float = DEFAULT_KERNEL_TOL) -> AsymptoticSet:
    """Spectral kernel of the Liouvillian as the asymptotic set."""
    if not g.autonomous:
        raise ValueError("generator is not autonomous")
    d = g.dim
    lmat = liouvillian_matrix(g, 0.0)
    w, vl, vr = scipy.linalg.eig(lmat, left=True, right=True)
    kernel = np.abs(w) <= tol
    peripheral = (~kernel) & (np.abs(w.real) <= tol) & (np.abs(w.imag) > tol)
    if np.any(peripheral):
        raise OscillatoryAsymptotics(
            f"non-kernel peripheral eigenvalues present: {w[peripheral]}"
        )
    k = int(np.sum(kernel))
    if k == 0:
        raise NoTraceOneElement("Liouvillian has an empty kernel")
    vk = vr[:, kernel]
    wk = vl[:, kernel]
    # spectral projector onto the kernel (biorthogonalized)
    proj = vk @ np.linalg.inv(wk.conj().T @ vk) @ wk.conj().T
    if k > 1:
        # P∞(X†) = P∞(X)†, i.e. conj(P∞) = T P∞ T for the transpose permutation T
        perm = np.arange(d * d).reshape(d, d).T.ravel()
        conj_residual = float(np.max(np.abs(proj[np.ix_(perm, perm)] - proj.conj())))
        if conj_residual > 1e-8:
            raise NoTraceOneElement(
                f"kernel is not closed under conjugation: residual {conj_residual:.3e}"
            )
    ref = unvec(proj @ vec(np.eye(d) / d), d)
    ref = 0.5 * (ref + ref.conj().T)
    tr = np.trace(ref).real
    if abs(tr - 1.0) > 1e-8:
        raise NoTraceOneElement(f"projected reference has trace {tr:.6g}")
    eigs = np.linalg.eigvalsh(ref)
    if eigs[0] < -1e-8:
        raise NoTraceOneElement(f"projected reference min eigenvalue {eigs[0]:.3e}")
    diagnostics = {
        "kernel_dim": k,
        "spectral_gap": float(min(-w.real[~kernel])) if k < w.size else 0.0,
        "peripheral_eigenvalues": [],
    }
    if k > 1:
        return AsymptoticSet(
            cardinality="many", dims=g.dims, map_matrix=proj, diagnostics=diagnostics
        )
    if eigs[0] < 0.0:
        ww, vv = np.linalg.eigh(ref)
        ref = (vv * np.clip(ww, 0.0, None)) @ vv.conj().T
        ref /= np.trace(ref).real
    return AsymptoticSet(
        cardinality="one",
        dims=g.dims,
        map_matrix=proj,
        state=new_state(ref, g.dims[0], g.dims[1]),
        diagnostics=diagnostics,
    )


def asymptotic_set_nonautonomous(
    g: Generator,
    horizon: float = DEFAULT_NONAUTONOMOUS_HORIZON,
    tol: float = DEFAULT_CONVERGENCE_TOL,
    opts: SolverOptions = DEFAULT_OPTS,
    seed: int = 0,
) -> AsymptoticSet:
    """Converged total propagator; the asymptotic set is its image of D."""
    _, phi_half, phi = propagator_matrices(g, (0.0, 0.5 * horizon, horizon), opts)
    residual = float(np.max(np.abs(phi - phi_half)))
    if residual > tol:
        raise NotConverged(
            f"propagator residual {residual:.3e} > {tol:.1e} at horizon {horizon}; "
            "extend the horizon"
        )
    rng = np.random.default_rng(seed)
    images = [apply_map(phi, _random_hs_state(rng, g.dims), opts) for _ in range(20)]
    spread = max(
        trace_distance(images[i], images[j])
        for i in range(len(images))
        for j in range(i + 1, len(images))
    )
    one = spread <= 1e-8
    return AsymptoticSet(
        cardinality="one" if one else "many",
        dims=g.dims,
        map_matrix=phi,
        state=apply_map(phi, _maximally_mixed(g.dims), opts) if one else None,
        diagnostics={"convergence_residual": residual, "image_spread": spread},
    )


def _maximally_mixed(dims) -> QState:
    d = dims[0] * dims[1]
    return new_state(np.eye(d) / d, dims[0], dims[1])


def _random_hs_state(rng: np.random.Generator, dims) -> QState:
    d = dims[0] * dims[1]
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = z @ z.conj().T
    return new_state(m / np.trace(m).real, dims[0], dims[1])


def representative(a: AsymptoticSet, opts: SolverOptions = DEFAULT_OPTS) -> QState:
    """Any member of the set (the canonical one for singletons)."""
    if a.state is not None:
        return a.state
    return apply_map(a.map_matrix, _maximally_mixed(a.dims), opts)


def sample_member(a: AsymptoticSet, rng: np.random.Generator,
                  opts: SolverOptions = DEFAULT_OPTS) -> QState:
    """Draw a random member of the asymptotic set."""
    if a.state is not None:
        return a.state
    return apply_map(a.map_matrix, _random_hs_state(rng, a.dims), opts)


def membership_residual(a: AsymptoticSet, s: QState) -> float:
    """How far a state is from being a member of the set."""
    if a.state is not None:
        return trace_distance(a.state, s)
    # least-squares preimage, projected back into D
    phi = a.map_matrix
    x, *_ = np.linalg.lstsq(phi, vec(s.matrix), rcond=None)
    d = s.dim
    pre = unvec(x, d)
    pre = 0.5 * (pre + pre.conj().T)
    w, v = np.linalg.eigh(pre)
    pre = (v * np.clip(w, 0.0, None)) @ v.conj().T
    tr = np.trace(pre).real
    if tr > 0.0:
        pre /= tr
    img = unvec(phi @ vec(pre), d)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(img - s.matrix))))


def _pure_probes() -> list[tuple[str, np.ndarray]]:
    """Products of |0>, |1>, |+>, |+i> on each qubit, then the Bell states."""
    singles = list(zip(["0", "1", "+", "+i"], single_qubit_probe_vectors()))
    probes = [(f"product |{la}{lb}>", np.kron(va, vb)) for la, va in singles for lb, vb in singles]
    bells = zip(["Phi+", "Phi-", "Psi+", "Psi-"], bell_vectors())
    return probes + [(f"Bell {name}", b) for name, b in bells]


def _image_probes(a: AsymptoticSet, n_probes: int, seed: int,
                  opts: SolverOptions) -> list[tuple[str, QState]]:
    probes = [(f"image({label})", new_state(np.outer(v, v.conj()), *a.dims))
              for label, v in _pure_probes()]
    rng = np.random.default_rng(seed)
    for i in range(n_probes):
        probes.append((f"image(random #{i})", _random_hs_state(rng, a.dims)))
    return [(label, apply_map(a.map_matrix, st, opts)) for label, st in probes]


def _pt(m: np.ndarray) -> np.ndarray:
    """Partial transpose on B of a two-qubit operator (not necessarily a state)."""
    return m.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def _pt_adjoint(a: AsymptoticSet, y: np.ndarray) -> np.ndarray:
    """P∞†(T_B |y><y|), the operator whose expectation in ρ is <y|T_B P∞(ρ)|y>."""
    return unvec(a.map_matrix.conj().T @ vec(_pt(np.outer(y, y.conj()))), 4)


def _seesaw_min(a: AsymptoticSet, x: np.ndarray, max_iter: int = 100) -> np.ndarray:
    """Pure state whose image is a local minimum of the PT margin over A.

    Alternates the two eigenproblems of min <y|T_B P∞(|x><x|)|y> over unit
    x and y; no step raises it.  Stops once a round gains less than 1e-10."""
    best = np.inf
    for _ in range(max_iter):
        w, v = np.linalg.eigh(_pt(unvec(a.map_matrix @ vec(np.outer(x, x.conj())), 4)))
        if w[0] >= best - 1e-10:
            break
        best = w[0]
        x = np.linalg.eigh(_pt_adjoint(a, v[:, 0]))[1][:, 0]
    return x


def classify_theorem_class(
    a: AsymptoticSet,
    tol: float = DEFAULT_CLASS_TOL,
    n_probes: int = DEFAULT_N_PROBES,
    seed: int = 0,
    opts: SolverOptions = DEFAULT_OPTS,
) -> TheoremClass:
    """Assign the asymptotic set to one of the six classes."""
    if a.dims != (2, 2):
        raise UnsupportedDimension(f"classification needs 2x2 dims, got {a.dims}")
    if a.cardinality == "one":
        region = classify_region(representative(a, opts), tol)
        class_id = {"deep_separable": 1, "boundary": 2, "entangled": 3}[region.tag]
        return TheoremClass(
            class_id=class_id,
            cardinality="one",
            min_margin=region.margin,
            max_margin=region.margin,
            min_probe="representative",
            max_probe="representative",
            tol=tol,
            probes=(("representative", region.margin),),
        )
    states = _image_probes(a, n_probes, seed, opts)
    for label, v in _pure_probes():
        x = _seesaw_min(a, v)
        pure = new_state(np.outer(x, x.conj()), *a.dims)
        states.append((f"seesaw from {label}", apply_map(a.map_matrix, pure, opts)))
    margins = [(label, min_pt_eigenvalue(st)) for label, st in states]
    bound = np.inf
    top = states[int(np.argmax([m for _, m in margins]))][1]
    if min_pt_eigenvalue(top) < -tol:
        # every ρ in D has margin(P∞ρ) <= <y|T_B P∞(ρ)|y> <= λ_max(P∞†(T_B|y><y|))
        y = np.linalg.eigh(_pt(top.matrix))[1][:, 0]
        bound = float(np.linalg.eigvalsh(_pt_adjoint(a, y))[-1])
        if bound >= -tol:  # no bound below -tol: try the centre as a last member
            margins.append(("image(I/4)", min_pt_eigenvalue(representative(a, opts))))
    values = np.array([m for _, m in margins])
    # margins equal to 1e-12 are ties, won by the first: a fixed probe before a search
    i_min = int(np.flatnonzero(values <= values.min() + 1e-12)[0])
    i_max = int(np.flatnonzero(values >= values.max() - 1e-12)[0])
    mn, mx = float(values[i_min]), float(values[i_max])
    if mn > tol:
        class_id = 4
    elif mx < -tol:
        if bound >= -tol:
            raise Inconclusive(
                f"every probe is NPT (max margin {mx:.3e}) but the bound on all "
                f"members is {bound:.3e}, not below -{tol:.1e}"
            )
        class_id = 6
    elif np.any(np.abs(values) <= tol) or (mn < -tol and mx > tol):
        class_id = 5
    else:
        hist = np.histogram(values, bins=10)
        raise Inconclusive(
            f"margins in [{mn:.3e}, {mx:.3e}] exclude classes 4/6 but no probe "
            f"certifies boundary contact within ±{tol:.1e}; histogram {hist}"
        )
    return TheoremClass(
        class_id=class_id,
        cardinality="many",
        min_margin=mn,
        max_margin=mx,
        min_probe=margins[i_min][0],
        max_probe=margins[i_max][0],
        tol=tol,
        probes=tuple(margins),
    )


def classify_generator(
    g: Generator,
    class_tol: float = DEFAULT_CLASS_TOL,
    kernel_tol: float = DEFAULT_KERNEL_TOL,
    horizon: float = DEFAULT_NONAUTONOMOUS_HORIZON,
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL,
    n_probes: int = DEFAULT_N_PROBES,
    seed: int = 0,
    opts: SolverOptions = DEFAULT_OPTS,
) -> tuple[AsymptoticSet, TheoremClass]:
    """Full pipeline: asymptotic set, then theorem class."""
    if g.autonomous:
        aset = stationary_set_autonomous(g, tol=kernel_tol)
    else:
        aset = asymptotic_set_nonautonomous(
            g, horizon=horizon, tol=convergence_tol, opts=opts, seed=seed
        )
    return aset, classify_theorem_class(aset, tol=class_tol, n_probes=n_probes, seed=seed, opts=opts)


def catalog_generator(class_id: int, gamma: float = 1.0, c: float | None = None) -> Generator:
    """A two-qubit generator certified to land in the requested class.

    1: depolarizing toward I/4 (all 15 non-identity Paulis, rate gamma/16)
    2: independent amplitude damping on both qubits
    3: pumping into the Bell state Phi+
    4: quenched depolarizing, rate c*exp(-t), c >= ln 3 + 0.5 (default 2)
    5: computational-basis dephasing on both qubits
    6: quenched Bell pumping, rate c*exp(-t), c >= 5 (default 10)
    """
    if gamma <= 0.0:
        raise BadParams(f"gamma must be positive, got {gamma}")
    dims = (2, 2)
    if class_id == 1:
        jumps = [(p, ConstantRate(gamma / 16.0)) for p in two_qubit_paulis()]
        return make_generator(dims, jumps=jumps)
    if class_id == 2:
        jumps = [
            (np.kron(SMINUS, EYE2), ConstantRate(gamma)),
            (np.kron(EYE2, SMINUS), ConstantRate(gamma)),
        ]
        return make_generator(dims, jumps=jumps)
    if class_id == 3:
        phi_p, *others = bell_vectors()
        jumps = [(np.outer(phi_p, b.conj()), ConstantRate(gamma)) for b in others]
        return make_generator(dims, jumps=jumps)
    if class_id == 4:
        c = 2.0 if c is None else float(c)
        if c < CLASS4_MIN_C:
            raise BadParams(
                f"class 4 needs c >= ln 3 + 0.5 ~= {CLASS4_MIN_C:.4f} to certify "
                f"a strictly interior image (Werner margin (1-3e^-c)/4); got {c}"
            )
        jumps = [(p, ExponentialRate(c / 16.0)) for p in two_qubit_paulis()]
        return make_generator(dims, jumps=jumps, autonomous=False)
    if class_id == 5:
        jumps = [
            (np.kron(SZ, EYE2), ConstantRate(gamma)),
            (np.kron(EYE2, SZ), ConstantRate(gamma)),
        ]
        return make_generator(dims, jumps=jumps)
    if class_id == 6:
        c = 10.0 if c is None else float(c)
        if c < CLASS6_MIN_C:
            raise BadParams(
                f"class 6 needs c >= {CLASS6_MIN_C} so every image stays strictly "
                f"NPT (population leakage e^-c); got {c}"
            )
        phi_p, *others = bell_vectors()
        jumps = [(np.outer(phi_p, b.conj()), ExponentialRate(c)) for b in others]
        return make_generator(dims, jumps=jumps, autonomous=False)
    raise BadParams(f"class_id must be 1..6, got {class_id}")
