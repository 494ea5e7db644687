"""Asymptotic sets of Lindblad dynamics and the six-class classification.

Every asymptotic set is held as the image A = P∞(D) of the state set D
under one linear map P∞ on vectorized operators, which ``asymptotic_set`` picks:

  * autonomous dynamics   -- the spectral projector onto the Liouvillian
                             kernel, which fixes every stationary state,
  * non-autonomous dynamics -- the converged total propagator.

A set is one state iff P∞(X) = tr(X)·P∞(I/4) for every X: a one-dimensional
kernel, or max|P∞ − vec(P∞(I/4))·vec(I)†| ≤ tol for the converged
propagator, the norm and tolerance of its convergence check.  One
constructor builds every set and checks that P∞(I/4) is a state.
A singleton set also carries its state P∞(I/4).  Classification into the
six classes is driven by the PT margin over probe states: a singleton is
placed by the trichotomy directly.  A larger set is probed by one stack:
product and Bell projectors, random states, and a seesaw result from each
product and Bell state (the margin is concave along mixtures, so its minimum
sits at an extreme point, which the seesaw seeks).  P∞ maps the stack in one
call, and one stacked eigensolve gives every margin.  Class 6 (every member
entangled) is claimed only with a bound on all of A.
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
)
from .geometry import classify_region, min_pt_eigenvalue, min_pt_eigenvalues
from .operators import (
    EYE2,
    SMINUS,
    SZ,
    bell_vectors,
    single_qubit_probe_vectors,
    two_qubit_paulis,
)
from .states import (
    D,
    QState,
    check_positive,
    hilbert_schmidt_state,
    new_state,
    trace_distance,
    transpose_b,
)

DEFAULT_CLASS_TOL = 1e-7
DEFAULT_KERNEL_TOL = 1e-9
DEFAULT_CONVERGENCE_TOL = 1e-8
DEFAULT_NONAUTONOMOUS_HORIZON = 60.0
DEFAULT_N_PROBES = 50

CLASS4_MIN_C = np.log(3.0) + 0.5
CLASS6_MIN_C = 5.0


@dataclass(frozen=True, eq=False)
class AsymptoticSet:
    cardinality: str  # one | many
    map_matrix: np.ndarray = field(repr=False)  # P∞; the set is P∞(D)
    state: QState | None = None  # P∞(I/4), singletons only
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
        perm = np.arange(D * D).reshape(D, D).T.ravel()
        conj_residual = float(np.max(np.abs(proj[np.ix_(perm, perm)] - proj.conj())))
        if conj_residual > 1e-8:
            raise NoTraceOneElement(
                f"kernel is not closed under conjugation: residual {conj_residual:.3e}"
            )
    diagnostics = {
        "kernel_dim": k,
        "spectral_gap": float(min(-w.real[~kernel])) if k < w.size else 0.0,
        "peripheral_eigenvalues": [],
    }
    return _set_of_map(proj, k == 1, diagnostics)


def asymptotic_set_nonautonomous(
    g: Generator,
    horizon: float = DEFAULT_NONAUTONOMOUS_HORIZON,
    tol: float = DEFAULT_CONVERGENCE_TOL,
    opts: SolverOptions = DEFAULT_OPTS,
) -> AsymptoticSet:
    """Converged total propagator; the asymptotic set is its image of D."""
    _, phi_half, phi = propagator_matrices(g, (0.0, 0.5 * horizon, horizon), opts)
    residual = float(np.max(np.abs(phi - phi_half)))
    if residual > tol:
        raise NotConverged(
            f"propagator residual {residual:.3e} > {tol:.1e} at horizon {horizon}; "
            "extend the horizon"
        )
    # one state iff P∞ = vec(P∞(I/4)) vec(I)†, to the tolerance P∞ is known to
    eye = vec(np.eye(D))
    traceless = float(np.max(np.abs(phi - np.outer(phi @ eye / D, eye))))
    diagnostics = {"convergence_residual": residual, "traceless_residual": traceless}
    return _set_of_map(phi, traceless <= tol, diagnostics)


def asymptotic_set(
    g: Generator,
    kernel_tol: float = DEFAULT_KERNEL_TOL,
    horizon: float = DEFAULT_NONAUTONOMOUS_HORIZON,
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL,
    opts: SolverOptions = DEFAULT_OPTS,
) -> AsymptoticSet:
    """The set of g: the Liouvillian kernel if g is autonomous, else the converged propagator's."""
    if g.autonomous:
        return stationary_set_autonomous(g, tol=kernel_tol)
    return asymptotic_set_nonautonomous(g, horizon=horizon, tol=convergence_tol, opts=opts)


def _set_of_map(p_inf: np.ndarray, one: bool, diagnostics: dict) -> AsymptoticSet:
    """The set P∞(D), once its centre P∞(I/4) is checked to be a state;
    a singleton keeps the centre, clipped only when needed, as its state."""
    ref = unvec(p_inf @ vec(np.eye(D) / D))
    ref = 0.5 * (ref + ref.conj().T)
    tr = np.trace(ref).real
    if abs(tr - 1.0) > 1e-8:
        raise NoTraceOneElement(f"projected reference has trace {tr:.6g}")
    eigs = np.linalg.eigvalsh(ref)
    if eigs[0] < -1e-8:
        raise NoTraceOneElement(f"projected reference min eigenvalue {eigs[0]:.3e}")
    state = None
    if one:
        if eigs[0] < 0.0:
            ww, vv = np.linalg.eigh(ref)
            ref = (vv * np.clip(ww, 0.0, None)) @ vv.conj().T
            ref /= np.trace(ref).real
        state = new_state(ref)
    return AsymptoticSet("one" if one else "many", p_inf, state, diagnostics)


def representative(a: AsymptoticSet) -> QState:
    """Any member of the set (the canonical one for singletons)."""
    if a.state is not None:
        return a.state
    return QState(apply_map(a.map_matrix, (np.eye(D) / D)[None])[0])


def sample_member(a: AsymptoticSet, rng: np.random.Generator) -> QState:
    """Draw a random member of the asymptotic set."""
    if a.state is not None:
        return a.state
    return QState(apply_map(a.map_matrix, hilbert_schmidt_state(rng).matrix[None])[0])


def membership_residual(a: AsymptoticSet, s: QState) -> float:
    """How far a state is from being a member of the set."""
    if a.state is not None:
        return trace_distance(a.state, s)
    # least-squares preimage, projected back into D
    phi = a.map_matrix
    x, *_ = np.linalg.lstsq(phi, vec(s.matrix), rcond=None)
    pre = unvec(x)
    pre = 0.5 * (pre + pre.conj().T)
    w, v = np.linalg.eigh(pre)
    pre = (v * np.clip(w, 0.0, None)) @ v.conj().T
    tr = np.trace(pre).real
    if tr > 0.0:
        pre /= tr
    img = unvec(phi @ vec(pre))
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(img - s.matrix))))


def _pure_probes() -> list[tuple[str, np.ndarray]]:
    """Products of |0>, |1>, |+>, |+i> on each qubit, then the Bell states."""
    singles = list(zip(["0", "1", "+", "+i"], single_qubit_probe_vectors()))
    probes = [(f"product |{la}{lb}>", np.kron(va, vb)) for la, va in singles for lb, vb in singles]
    bells = zip(["Phi+", "Phi-", "Psi+", "Psi-"], bell_vectors())
    return probes + [(f"Bell {name}", b) for name, b in bells]


def _pt_adjoint(a: AsymptoticSet, y: np.ndarray) -> np.ndarray:
    """P∞†(T_B |y><y|), the operator whose expectation in ρ is <y|T_B P∞(ρ)|y>."""
    return unvec(a.map_matrix.conj().T @ vec(transpose_b(np.outer(y, y.conj()))))


def _seesaw_min(a: AsymptoticSet, x: np.ndarray, max_iter: int = 100) -> np.ndarray:
    """Pure state whose image is a local minimum of the PT margin over A.

    Alternates the two eigenproblems of min <y|T_B P∞(|x><x|)|y> over unit
    x and y; no step raises it.  Stops once a round gains less than 1e-10."""
    best = np.inf
    for _ in range(max_iter):
        w, v = np.linalg.eigh(transpose_b(unvec(a.map_matrix @ vec(np.outer(x, x.conj())))))
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
) -> TheoremClass:
    """Assign the asymptotic set to one of the six classes."""
    check_positive("tol", tol)
    if a.cardinality == "one":
        region = classify_region(representative(a), tol)
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
    labels, kets = zip(*_pure_probes())
    rng = np.random.default_rng(seed)
    probes = [np.outer(v, v.conj()) for v in kets]
    probes += [hilbert_schmidt_state(rng).matrix for _ in range(n_probes)]
    probes += [np.outer(x, x.conj()) for x in (_seesaw_min(a, v) for v in kets)]
    ms = np.stack(probes)  # Hermitized as new_state does: np.outer(x, x†) may not be Hermitian
    images = apply_map(a.map_matrix, 0.5 * (ms + ms.conj().transpose(0, 2, 1)))
    names = [f"image({s})" for s in labels] + [f"image(random #{i})" for i in range(n_probes)]
    names += [f"seesaw from {s}" for s in labels]
    values = min_pt_eigenvalues(images)
    bound = np.inf
    if values.max() < -tol:
        # every ρ in D has margin(P∞ρ) <= <y|T_B P∞(ρ)|y> <= λ_max(P∞†(T_B|y><y|))
        y = np.linalg.eigh(transpose_b(images[values.argmax()]))[1][:, 0]
        bound = float(np.linalg.eigvalsh(_pt_adjoint(a, y))[-1])
        if bound >= -tol:  # no bound below -tol: try the centre as a last member
            names.append("image(I/4)")
            values = np.append(values, min_pt_eigenvalue(representative(a)))
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
    else:  # mn <= tol and mx >= -tol: a margin within ±tol, or margins of both signs
        class_id = 5
    return TheoremClass(
        class_id=class_id,
        cardinality="many",
        min_margin=mn,
        max_margin=mx,
        min_probe=names[i_min],
        max_probe=names[i_max],
        tol=tol,
        probes=tuple(zip(names, values.tolist())),
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
    """Full pipeline: ``asymptotic_set``, then ``classify_theorem_class``."""
    aset = asymptotic_set(g, kernel_tol, horizon, convergence_tol, opts)
    return aset, classify_theorem_class(aset, tol=class_tol, n_probes=n_probes, seed=seed)


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
    if class_id == 1:
        jumps = [(p, ConstantRate(gamma / 16.0)) for p in two_qubit_paulis()]
        return make_generator(jumps=jumps)
    if class_id == 2:
        jumps = [
            (np.kron(SMINUS, EYE2), ConstantRate(gamma)),
            (np.kron(EYE2, SMINUS), ConstantRate(gamma)),
        ]
        return make_generator(jumps=jumps)
    if class_id == 3:
        phi_p, *others = bell_vectors()
        jumps = [(np.outer(phi_p, b.conj()), ConstantRate(gamma)) for b in others]
        return make_generator(jumps=jumps)
    if class_id == 4:
        c = 2.0 if c is None else float(c)
        if c < CLASS4_MIN_C:
            raise BadParams(
                f"class 4 needs c >= ln 3 + 0.5 ~= {CLASS4_MIN_C:.4f} to certify "
                f"a strictly interior image (Werner margin (1-3e^-c)/4); got {c}"
            )
        jumps = [(p, ExponentialRate(c / 16.0)) for p in two_qubit_paulis()]
        return make_generator(jumps=jumps, autonomous=False)
    if class_id == 5:
        jumps = [
            (np.kron(SZ, EYE2), ConstantRate(gamma)),
            (np.kron(EYE2, SZ), ConstantRate(gamma)),
        ]
        return make_generator(jumps=jumps)
    if class_id == 6:
        c = 10.0 if c is None else float(c)
        if c < CLASS6_MIN_C:
            raise BadParams(
                f"class 6 needs c >= {CLASS6_MIN_C} so every image stays strictly "
                f"NPT (population leakage e^-c); got {c}"
            )
        phi_p, *others = bell_vectors()
        jumps = [(np.outer(phi_p, b.conj()), ExponentialRate(c)) for b in others]
        return make_generator(jumps=jumps, autonomous=False)
    raise BadParams(f"class_id must be 1..6, got {class_id}")
