"""Asymptotic sets of Lindblad dynamics and the six-class classification.

Every asymptotic set is held as the image A = P∞(D) of the state set D
under one linear map P∞ on vectorized operators, which ``asymptotic_set`` picks:

  * autonomous dynamics   -- the spectral projector onto the Liouvillian
                             kernel, biorthogonalized from its right
                             kernel (``Generator.spectrum``) and its left
                             kernel (one numpy eigendecomposition of L^H),
                             which fixes every stationary state,
  * a quench, L(t) = a·e^{−t/τ}·D (no Hamiltonian, and one
    ``ExponentialRate`` shared by every channel) -- its exact limit
    exp(a·τ·D) (``dynamics.expm``), since its flow is Φ(t) = exp(F(t)·D)
    with F(t) = ∫₀ᵗ a·e^{−s/τ} ds → a·τ,
  * any other non-autonomous dynamics -- the converged total propagator.

A set is one state iff P∞(X) = tr(X)·P∞(I/4) for every X: a one-dimensional
kernel, or max|P∞ − vec(P∞(I/4))·vec(I)†| ≤ tol for the exact limit and
the converged propagator, at the tolerance of the propagator's
convergence check.  One constructor builds every set and checks that
P∞(I/4) is a state.
A singleton set also carries its state P∞(I/4).  Classification into the
six classes is driven by the PT margin over probe states: a singleton is
placed by the trichotomy directly.  A larger set is probed by one stack:
product and Bell projectors (the products from one broadcast outer
product), random states (one stacked Hilbert-Schmidt draw,
``states.hilbert_schmidt_states``, bit for bit the scalar draws), and a
seesaw result from each product and Bell state (the margin is concave
along mixtures, so its minimum sits at an extreme point, which the seesaw
seeks).  The seesaw's starts
advance as one stack, each stopping on its own rule, so each result is the
one its start reaches alone.  P∞ maps the probe stack in one call, and one
stacked eigensolve gives every margin.  Class 6 (every member entangled) is
claimed only with a bound on all of A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import dynamics
from .dynamics import (
    DEFAULT_OPTS,
    ConstantRate,
    ExponentialRate,
    Generator,
    SolverOptions,
    _trace_preserving,
    apply_map,
    liouvillian_matrix,
    make_generator,
    map_operators,
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
    VALIDATION_TOL,
    QState,
    check_positive,
    check_whole,
    hilbert_schmidt_states,
    new_state,
    trace_distance,
    transpose_b,
)

DEFAULT_CLASS_TOL = 1e-7
DEFAULT_KERNEL_TOL = 1e-9
DEFAULT_CONVERGENCE_TOL = 1e-8
DEFAULT_NONAUTONOMOUS_HORIZON = 60.0
DEFAULT_N_PROBES = 50

# The quenches' true thresholds, moved in by a margin of 10 class tolerances:
# class 4's least image margin, (1 - 3 e^-c)/4, is positive past ln 3 and is
# 10 tol here; class 6's greatest, e^-c - 1/2, is negative past ln 2 and is -10 tol.
CLASS4_MIN_C = float(np.log(3.0) - np.log(1.0 - 40.0 * DEFAULT_CLASS_TOL))
CLASS6_MIN_C = float(-np.log(0.5 - 10.0 * DEFAULT_CLASS_TOL))

# The rate integral F1 past which a quench's limit exp(F·D) is read at F1.
# expm's squaring loses trace in proportion to F: on class 4 the residual is
# 8.4e-15 at c = 1e3 (F = 62.5), 9.5e-11 at F = 6.25e4 and 7.2e-9 at
# F = 6.25e6, and at F = 6.25e7 (c = 1e9) it is 1.5e-7, failing the 1e-8
# trace check.  At F1 = 128 it is 5.7e-14, while the catalog's slowest decay,
# class 6's e^{-F/2}, is e^-64 = 1.6e-28, far below round-off.
QUENCH_LIMIT_F1 = 128.0

# the generator catalog: class id -> (description, {its one rate parameter: default})
CATALOG = {
    1: ("constant depolarizing toward I/4", {"gamma": 1.0}),
    2: ("independent amplitude damping on both qubits", {"gamma": 1.0}),
    3: ("pumping into the Bell state Phi+", {"gamma": 1.0}),
    4: (
        f"quenched depolarizing, rate c*exp(-t); needs c >= {CLASS4_MIN_C:g} (just past ln 3)",
        {"c": 2.0},
    ),
    5: ("computational-basis dephasing on both qubits", {"gamma": 1.0}),
    6: (
        f"quenched Bell pumping, rate c*exp(-t); needs c >= {CLASS6_MIN_C:g} (just past ln 2)",
        {"c": 10.0},
    ),
}


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
    """Spectral kernel of the Liouvillian as the asymptotic set: its right
    kernel from the generator's ``spectrum`` (ValueError unless g is
    autonomous), its left kernel from one eigendecomposition of L^H, each
    the eigenvectors with |lambda| <= tol; kernels of unequal dimension are
    NoTraceOneElement."""
    check_positive("tol", tol)
    w, vr, _ = g.spectrum
    kernel = np.abs(w) <= tol
    peripheral = (~kernel) & (np.abs(w.real) <= tol) & (np.abs(w.imag) > tol)
    if np.any(peripheral):
        raise OscillatoryAsymptotics(
            f"non-kernel peripheral eigenvalues present: {w[peripheral]}"
        )
    k = int(np.sum(kernel))
    if k == 0:
        raise NoTraceOneElement("Liouvillian has an empty kernel")
    mu, vl = np.linalg.eig(liouvillian_matrix(g).conj().T)
    left = np.abs(mu) <= tol
    k_left = int(np.sum(left))
    if k_left != k:
        raise NoTraceOneElement(f"left kernel of dimension {k_left}, right kernel of dimension {k}")
    vk = vr[:, kernel]
    wk = vl[:, left]
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
    }
    return _set_of_map(proj, k == 1, diagnostics)


def asymptotic_set_nonautonomous(
    g: Generator,
    horizon: float = DEFAULT_NONAUTONOMOUS_HORIZON,
    tol: float = DEFAULT_CONVERGENCE_TOL,
    opts: SolverOptions = DEFAULT_OPTS,
) -> AsymptoticSet:
    """Converged total propagator; the asymptotic set is its image of D."""
    check_positive("horizon", horizon)
    check_positive("tol", tol)
    _, phi_half, phi = propagator_matrices(g, (0.0, 0.5 * horizon, horizon), opts)
    residual = float(np.max(np.abs(phi - phi_half)))
    if residual > tol:
        raise NotConverged(
            f"propagator residual {residual:.3e} > {tol:.1e} at horizon {horizon}; "
            "extend the horizon"
        )
    traceless = _traceless_residual(phi)
    diagnostics = {"convergence_residual": residual, "traceless_residual": traceless}
    return _set_of_map(phi, traceless <= tol, diagnostics)


def _quench_limit_set(g: Generator, tol: float) -> AsymptoticSet:
    """The exact limit exp(a·τ·D) of a quench, L(t) = a·e^{−t/τ}·D; one
    state by the propagator's traceless test at ``tol``.

    Past a·τ = QUENCH_LIMIT_F1 the limit is E = exp(F1·D) once D·E vanishes
    to round-off: then exp(s·D)·E = E for every s >= 0, so
    exp(a·τ·D) = exp((a·τ − F1)·D)·E = E, without the squaring error that
    grows with a·τ."""
    ((rate,), (dissipator,)) = g.rates, g.dissipators
    integral = rate.amplitude * rate.tau
    # an infinite a·τ makes inf·0 = NaN entries, which the trace check fails typed
    with np.errstate(over="ignore", invalid="ignore"):
        p_inf = dynamics.expm(min(integral, QUENCH_LIMIT_F1) * dissipator)
        # D·E above the round-off of a 16-term product: E is not yet the limit
        roundoff = 16 * np.finfo(float).eps * np.max(np.abs(dissipator))
        if integral > QUENCH_LIMIT_F1 and np.max(np.abs(dissipator @ p_inf)) > roundoff:
            p_inf = dynamics.expm(integral * dissipator)
    p_inf = _trace_preserving(p_inf[None])[0]
    traceless = _traceless_residual(p_inf)
    diagnostics = {"rate_integral": integral, "traceless_residual": traceless}
    return _set_of_map(p_inf, traceless <= tol, diagnostics)


def _is_quench(g: Generator) -> bool:
    """Whether g is L(t) = a·e^{−t/τ}·D: a constant zero Hamiltonian and
    exactly one distinct rate, an ``ExponentialRate``."""
    return (
        g.hamiltonian_part is not None
        and not g.hamiltonian_part.any()
        and len(g.rates) == 1
        and type(g.rates[0]) is ExponentialRate
    )


def _traceless_residual(p_inf: np.ndarray) -> float:
    """max|P∞ − vec(P∞(I/4))·vec(I)†|: zero iff P∞ maps every state to one."""
    eye = vec(np.eye(D))
    return float(np.max(np.abs(p_inf - np.outer(p_inf @ eye / D, eye))))


def asymptotic_set(
    g: Generator,
    kernel_tol: float = DEFAULT_KERNEL_TOL,
    horizon: float = DEFAULT_NONAUTONOMOUS_HORIZON,
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL,
    opts: SolverOptions = DEFAULT_OPTS,
) -> AsymptoticSet:
    """The set of g: the Liouvillian kernel if g is autonomous, the exact
    limit exp(a·τ·D) if g is a quench, else the converged propagator's.
    ``horizon`` and ``convergence_tol`` are checked for every non-autonomous
    g, though only the propagator reads the horizon."""
    if g.autonomous:
        return stationary_set_autonomous(g, tol=kernel_tol)
    check_positive("horizon", horizon)
    check_positive("tol", convergence_tol)
    if _is_quench(g):
        return _quench_limit_set(g, convergence_tol)
    return asymptotic_set_nonautonomous(g, horizon=horizon, tol=convergence_tol, opts=opts)


def _set_of_map(p_inf: np.ndarray, one: bool, diagnostics: dict) -> AsymptoticSet:
    """The set P∞(D), once its centre P∞(I/4) is checked to be a state;
    a singleton keeps the centre as its state, clipped only when needed and
    renormalized only when clipped or off by more in trace than
    ``new_state`` allows."""
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
        if eigs[0] < 0.0 or abs(tr - 1.0) > VALIDATION_TOL:
            ref /= np.trace(ref).real
        state = new_state(ref)
    return AsymptoticSet("one" if one else "many", p_inf, state, diagnostics)


def _representative(a: AsymptoticSet) -> QState:
    """Any member of the set (the canonical one for singletons)."""
    if a.state is not None:
        return a.state
    return QState(apply_map(a.map_matrix, (np.eye(D) / D)[None])[0])


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


def _pure_probes() -> tuple[list[str], np.ndarray]:
    """The labels and the (20, 4) stack of kets of the products of |0>, |1>,
    |+>, |+i> on each qubit, a first, then the Bell states.  The products
    are one broadcast outer product, entry by entry np.kron's."""
    singles = ["0", "1", "+", "+i"]
    v = np.stack(single_qubit_probe_vectors())
    products = (v[:, None, :, None] * v[None, :, None, :]).reshape(16, D)
    labels = [f"product |{a}{b}>" for a in singles for b in singles]
    labels += [f"Bell {name}" for name in ("Phi+", "Phi-", "Psi+", "Psi-")]
    return labels, np.concatenate([products, bell_vectors()])


def _projectors(kets: np.ndarray) -> np.ndarray:
    """|x><x| of every ket of a (..., 4) stack, entry by entry np.outer(x, x†)."""
    return kets[..., :, None] * kets.conj()[..., None, :]


def _pt_adjoint(a: AsymptoticSet, ys: np.ndarray) -> np.ndarray:
    """P∞†(T_B |y><y|) for every ket of a (..., 4) stack, the operator whose
    expectation in ρ is <y|T_B P∞(ρ)|y>."""
    return map_operators(a.map_matrix.conj().T, transpose_b(_projectors(ys)))


def _seesaw_min(a: AsymptoticSet, xs: np.ndarray, max_iter: int = 100) -> np.ndarray:
    """Pure states whose images are local minima of the PT margin over A,
    one from each start of an (N, 4) stack of kets.

    From each start, alternates the two eigenproblems of
    min <y|T_B P∞(|x><x|)|y> over unit x and y; no step raises it.  A start
    stops once a round gains less than 1e-10.  The starts advance as one
    stack: each round makes one stacked eigensolve per eigenproblem over the
    starts still running, and a start leaves the stack in the round it
    stops, so each result is the one its start reaches alone."""
    xs = np.array(xs, dtype=complex)
    best = np.full(len(xs), np.inf)
    live = np.arange(len(xs))
    for _ in range(max_iter):
        w, v = np.linalg.eigh(transpose_b(map_operators(a.map_matrix, _projectors(xs[live]))))
        going = ~(w[:, 0] >= best[live] - 1e-10)  # the one-start rule, NaN included
        live, v = live[going], v[going]
        if not live.size:
            break
        best[live] = w[going, 0]
        xs[live] = np.linalg.eigh(_pt_adjoint(a, v[:, :, 0]))[1][:, :, 0]
    return xs


def classify_theorem_class(
    a: AsymptoticSet,
    tol: float = DEFAULT_CLASS_TOL,
    n_probes: int = DEFAULT_N_PROBES,
    seed: int = 0,
) -> TheoremClass:
    """Assign the asymptotic set to one of the six classes.  ``n_probes`` and
    ``seed`` are non-negative integers (``ValueError`` otherwise)."""
    check_positive("tol", tol)
    check_whole("n_probes", n_probes)
    check_whole("seed", seed)
    if a.cardinality == "one":
        region = classify_region(_representative(a), tol)
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
    labels, kets = _pure_probes()
    randoms = hilbert_schmidt_states(np.random.default_rng(seed), n_probes)
    ms = np.concatenate([_projectors(kets), randoms, _projectors(_seesaw_min(a, kets))])
    # Hermitized as new_state does: |x><x| may not be Hermitian
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
            values = np.append(values, min_pt_eigenvalue(_representative(a)))
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
    check_whole("n_probes", n_probes)
    check_whole("seed", seed)
    aset = asymptotic_set(g, kernel_tol, horizon, convergence_tol, opts)
    return aset, classify_theorem_class(aset, tol=class_tol, n_probes=n_probes, seed=seed)


def catalog_generator(class_id: int, **params: float) -> Generator:
    """A two-qubit generator certified to land in the requested class.

    ``CATALOG[class_id]`` describes it and names its one rate parameter,
    with its default: gamma for the constant rates of classes 1, 2, 3 and 5,
    c for the rates c*exp(-t) of the quenches 4 and 6, which need c >=
    ``CLASS4_MIN_C`` and c >= ``CLASS6_MIN_C``.  An id that is not an integer
    in 1..6 (a float or bool included), a parameter the class does not read,
    or a value not positive and finite is ``BadParams``.
    """
    try:
        class_id = check_whole("class_id", class_id, min(CATALOG), max(CATALOG))
        ((name, default),) = CATALOG[class_id][1].items()
        for key in params:
            if key != name:
                raise BadParams(f"class {class_id} takes only the parameter {name}, got {key}")
        value = params.get(name, default)
        check_positive(name, value)
    except ValueError as exc:
        raise BadParams(str(exc)) from None
    if class_id == 4 and float(value) < CLASS4_MIN_C:
        raise BadParams(
            f"class 4 needs c >= {CLASS4_MIN_C:.7f}, just past ln 3, where the least "
            f"image margin (1-3e^-c)/4 turns positive; got {value}"
        )
    if class_id == 6 and float(value) < CLASS6_MIN_C:
        raise BadParams(
            f"class 6 needs c >= {CLASS6_MIN_C:.7f}, just past ln 2, where the greatest "
            f"image margin e^-c - 1/2 turns negative; got {value}"
        )
    if class_id in (1, 4):  # depolarizing: all 15 non-identity Paulis, a 16th of the rate each
        ops, share = two_qubit_paulis(), 16.0
    elif class_id in (3, 6):  # pumping into Phi+ from the other three Bell states
        phi_p, *others = bell_vectors()
        ops, share = [np.outer(phi_p, b.conj()) for b in others], 1.0
    else:  # on each qubit: amplitude damping (2) or computational-basis dephasing (5)
        op = SMINUS if class_id == 2 else SZ
        ops, share = [np.kron(op, EYE2), np.kron(EYE2, op)], 1.0
    rate = ExponentialRate(float(value) / share) if name == "c" else ConstantRate(value / share)
    return make_generator(jumps=[(op, rate) for op in ops])
