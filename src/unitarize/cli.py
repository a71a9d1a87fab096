"""Command line front end, driven by one table, SUBCOMMANDS.

Every subcommand reads matrices as {"dim": n, "data": [[re, im], ...]} JSON
files, prints one report to stdout, and exits with 0 for a positive or
neutral outcome, 2 for a negative domain verdict (unbounded orbit, broken
relations, failed factorization), and 1 for malformed input or usage
errors, argparse's own included.  Reports are canonical: the same inputs
produce byte-identical bytes, and their inputs_digest covers every input
file and every option of the subcommand's own.  Only nagy, oracle, log,
altmetric (with --phi), depend, pair, heisenberg and intertwine take --h0.
Each subcommand takes the tolerance options its analysis reads: depend takes
--tol-cluster, --tol-unitary and --horizon, oracle only --horizon, cayley and
hamiltonian none, and the others --tol-cluster and --tol-unitary.  The
UNITARIZE_SEED environment variable, a non-negative integer, seeds the
randomized example generator.

Run as a program (python -m unitarize.cli, or the unitarize console script),
the process goes through run(): its one command runs with the cyclic garbage
collector off.  main(argv) leaves the collector alone.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import re
import sys
import warnings
from collections.abc import Callable

import numpy as np

# Only the modules check runs are imported here, and check is the subcommand
# that runs fewest; a fill that needs another one imports it where it runs, so
# a CLI process loads no more than its subcommand uses.  core comes first and
# each module is imported by name, so that `python -X importtime` lists every
# module a run loads.
from .core import (
    DEFAULT_TOLERANCES, DRIFT_RTOL, PSD_RTOL, RELATION_RTOL, ToleranceConfig, _require_tolerance,
    invariance_residual, relative_change, self_adjointness_residual,
)
from . import errors
from .boundedness import check_generator, check_normal_dichotomy, check_uniformly_bounded
from .errors import InvalidInput, UnitarizeError
from .serialization import (
    AnalysisReport,
    form_payload,
    inputs_digest,
    load_json,
    matrix_payload,
    parse_form,
    parse_matrix,
)

# Domain-level negative answers: the input was well formed, the mathematics
# said no.  Everything else inheriting UnitarizeError is a usage error.
DOMAIN_ERRORS = (
    errors.NotUniformlyBounded,
    errors.NotAutomorphism,
    errors.NotCommuting,
    errors.RelationViolated,
    errors.NotBoundedFlow,
    errors.DivergenceDetected,
    errors.SingularShift,
)

_FACTORIZATION_RTOL = 1e-9


def _config(args) -> ToleranceConfig:
    # a subcommand's namespace holds only the tolerance options it takes
    given = {field: getattr(args, dest, None)
             for dest, (field, _) in _TOLERANCE_OPTIONS.items()}
    return dataclasses.replace(
        DEFAULT_TOLERANCES, **{k: v for k, v in given.items() if v is not None}
    )


def _load_fiducial(path: str | None, dim: int):
    """A form path, the literal "identity", or None."""
    if path is None or path == "identity":
        return None, {"kind": "identity"}
    payload = load_json(path)
    form = parse_form(payload)
    if form.dim != dim:
        raise InvalidInput(
            f"fiducial form dimension {form.dim} does not match operator "
            f"dimension {dim}"
        )
    return form, payload


# fill(report, args, cfg) sees operators as matrices and forms as HermitianForm
# or None; it writes the report and returns 2 for a negative verdict.


def _check(report, a, cfg):
    if a.generator:
        gen = check_generator(a.infile, cfg)
        report.verdicts["outcome"] = gen.verdict
        for key in ("spectrum", "off_real", "defective"):
            report.scalars[key] = [complex(z) for z in getattr(gen, key)]
        return 0 if gen.similar_to_self_adjoint else 2
    rep = check_uniformly_bounded(a.infile, cfg)
    report.verdicts["outcome"] = rep.verdict
    report.verdicts["reasons"] = list(rep.reasons)
    report.scalars["off_circle"] = [complex(z) for z in rep.off_circle]
    report.scalars["defective"] = [complex(z) for z in rep.defective]
    report.scalars["sampled_power_norms"] = {
        str(k): rep.sampled_power_norms[k] for k in sorted(rep.sampled_power_norms)
    }
    if rep.bound_estimate is not None:
        report.scalars["bound_estimate"] = rep.bound_estimate
    normality = check_normal_dichotomy(a.infile, cfg)
    report.verdicts["normality"] = normality.verdict
    return 0 if rep.bounded else 2


def _nagy(report, a, cfg):
    from .metrics import invariant_metric

    result = invariant_metric(a.infile, a.h0, cfg)
    report.verdicts["outcome"] = "unitarizable"
    report.matrices["invariant_gram"] = matrix_payload(result.invariant_form.gram)
    report.matrices["positive_similarity"] = matrix_payload(result.positive_similarity)
    report.matrices["unitarized"] = matrix_payload(result.unitarized)
    report.residuals.update(result.residuals)


def _oracle(report, a, cfg):
    from .metrics import cesaro_oracle

    form, drift = cesaro_oracle(a.infile, a.h0, cfg.cesaro_horizon)
    report.verdicts["outcome"] = "averaged"
    report.matrices["cesaro_gram"] = matrix_payload(form.gram)
    report.scalars["horizon"] = cfg.cesaro_horizon
    report.residuals["cesaro_drift"] = drift


def _cayley(report, a, cfg):
    from .metrics import cayley, inverse_cayley

    image = inverse_cayley(a.infile) if a.inverse else cayley(a.infile)
    report.verdicts["outcome"] = "mapped"
    report.matrices["image"] = matrix_payload(image)


def _log(report, a, cfg):
    from .metrics import invariant_metric, unitary_log

    T = a.infile
    result = invariant_metric(T, a.h0, cfg)
    gen = unitary_log(result)
    w, v = np.linalg.eig(gen)
    rebuilt = v @ (np.exp(1j * w)[:, None] * np.linalg.inv(v))
    g = result.invariant_form.gram
    report.verdicts["outcome"] = "generated"
    report.matrices["generator"] = matrix_payload(gen)
    report.matrices["invariant_gram"] = matrix_payload(g)
    report.residuals["exp_reconstruction"] = relative_change(rebuilt, T)
    report.residuals["self_adjointness"] = self_adjointness_residual(gen, g)


def _parse_weights(payload) -> dict:
    if not isinstance(payload, dict):
        raise InvalidInput("the weights file must map cluster index to weight")
    weights = {}
    for key, val in payload.items():
        try:
            cluster = int(key)
        except ValueError:
            raise InvalidInput(f"cluster key {key!r} is not an integer") from None
        if isinstance(val, dict):
            weights[cluster] = parse_matrix(val)
        elif isinstance(val, (int, float)) and not isinstance(val, bool):
            weights[cluster] = val  # ScalingSpec reads it, and refuses it by cluster
        else:
            raise InvalidInput(
                f"weight for cluster {cluster} must be a number or a matrix payload"
            )
    return weights


def _parse_phi(payload):
    """A constant, or a map from cluster index to a positive number."""
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return lambda theta: payload
    if isinstance(payload, dict):
        try:
            return {int(k): float(v) for k, v in payload.items()}
        except (TypeError, ValueError, OverflowError):
            raise InvalidInput(
                "the phi file must map cluster index to a positive number"
            ) from None
    raise InvalidInput("the phi file must hold a number or an index-to-value map")


def _altmetric(report, a, cfg):
    from .alternatives import ScalingSpec, phi_metric, scaled_metric
    from .metrics import invariant_metric

    T = a.infile
    if a.weights is not None:
        if a.h0 is not None:
            raise InvalidInput("--weights reads no fiducial form; --h0 goes with --phi only")
        form = scaled_metric(T, ScalingSpec(_parse_weights(a.weights)), cfg)
        report.verdicts["outcome"] = "scaled_metric"
        report.matrices["scaled_gram"] = matrix_payload(form.gram)
    else:
        phi = _parse_phi(a.phi)
        result = invariant_metric(T, a.h0, cfg)
        form, commuting = phi_metric(result, phi)
        report.verdicts["outcome"] = "phi_metric"
        report.matrices["phi_gram"] = matrix_payload(form.gram)
        report.matrices["commuting_factor"] = matrix_payload(commuting)
        report.residuals["commutation"] = relative_change(T @ commuting, commuting @ T)
    report.residuals["invariance"] = invariance_residual(T, form.gram)


def _depend(report, a, cfg):
    from .alternatives import metric_dependence

    dep = metric_dependence(a.infile, a.h0, a.h0_prime, cfg, a.horizon)
    report.verdicts["outcome"] = "analyzed"
    report.matrices["fiducial_change"] = matrix_payload(dep.fiducial_change)
    report.matrices["invariant_change"] = matrix_payload(dep.invariant_change)
    report.matrices["averaging_defect"] = matrix_payload(dep.averaging_defect)
    report.scalars["horizon"] = dep.horizon
    report.residuals.update(dep.residuals)
    report.residuals["cesaro_drift"] = dep.cesaro_residual


def _pair(report, a, cfg):
    from .families import commuting_pair_metric, multiplicity_free_shortcut

    result = commuting_pair_metric(a.t1, a.t2, a.h0, cfg)
    report.verdicts["outcome"] = "joint_metric"
    report.matrices["joint_gram"] = matrix_payload(result.form.gram)
    for stage in result.stages:
        report.matrices[f"stage_{stage.label}_gram"] = matrix_payload(stage.form.gram)
    for label, res in result.unitarity_residuals.items():
        report.residuals[f"invariance_{label}"] = res
    if a.shortcut:
        cut = multiplicity_free_shortcut(result)
        report.verdicts["shortcut"] = (
            "single_pass_suffices" if cut.valid else "degenerate_cluster"
        )
        report.residuals["shortcut_second_invariance"] = cut.second_invariance_residual


def _relation_tol(text: str) -> float:
    """--relation-tol's type: a value heisenberg_metric would refuse is
    refused as argparse reads it, so that the error names the option."""
    try:
        value = float(text)
    except ValueError:
        value = text
    try:
        _require_tolerance("relation_tol", value)
    except InvalidInput as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _heisenberg(report, a, cfg):
    from .families import heisenberg_metric

    result = heisenberg_metric(a.t1, a.t2, a.t3, a.h0, cfg, relation_tol=a.relation_tol)
    report.verdicts["outcome"] = "joint_metric"
    report.matrices["joint_gram"] = matrix_payload(result.form.gram)
    for label, res in result.unitarity_residuals.items():
        report.residuals[f"invariance_{label}"] = res


def _intertwine(report, a, cfg):
    from .intertwine import intertwiner

    result = intertwiner(a.t1, a.t2, a.h0, cfg)
    report.verdicts["outcome"] = (
        "nonzero_connection" if result.nonzero else "disjoint_spectra"
    )
    report.matrices["in_fiducial_metric"] = matrix_payload(result.in_fiducial_metric)
    report.matrices["in_first_metric"] = matrix_payload(result.in_first_metric)
    report.matrices["in_second_metric"] = matrix_payload(result.in_second_metric)
    report.scalars["rank"] = result.rank
    report.scalars["common_eigenvalues"] = [complex(z) for z in result.common_eigenvalues]
    report.residuals.update(result.relation_residuals)


def _hamiltonian(report, a, cfg):
    from .hamiltonian import ClassicalFactorization, factorization_check

    for name, mat in (("dynamics", a.dyn), ("poisson", a.poisson), ("energy", a.energy)):
        if np.max(np.abs(mat.imag)) > 1e-12 * max(np.max(np.abs(mat.real)), 1.0):
            raise InvalidInput(f"the {name} matrix must be real")
    fact = ClassicalFactorization(a.poisson.real, a.energy.real)
    residual = factorization_check(a.dyn.real, fact)
    scale = 1.0 + float(np.linalg.norm(a.dyn.real))
    ok = residual <= _FACTORIZATION_RTOL * scale
    plus, minus = fact.signature
    report.verdicts["outcome"] = "factorization_matches" if ok else "factorization_fails"
    report.residuals["factorization"] = residual
    report.scalars["signature_plus"] = plus
    report.scalars["signature_minus"] = minus
    return 0 if ok else 2


class _DrawSpec(argparse.Action):
    """example --random KIND: the spec input is drawn, not read, and the
    seed it was drawn with is kept for the report."""

    def __call__(self, parser, namespace, kind, option_string=None):
        from .line_models import _random_payload

        seed = os.environ.get("UNITARIZE_SEED", "0")
        if not seed.strip().isdecimal():
            raise InvalidInput(f"UNITARIZE_SEED must be a non-negative integer, got {seed!r}")
        try:
            namespace.seed = int(seed)
        except ValueError:  # more digits than Python converts
            raise InvalidInput(f"UNITARIZE_SEED has {len(seed)} digits, too many") from None
        setattr(namespace, self.dest, _random_payload(kind, namespace.seed))


def _example(report, a, cfg):
    from .line_models import CLOSED_FORMS, _spec_from_payload, _spectrum_match, build
    from .metrics import invariant_metric

    spec = _spec_from_payload(a.spec)
    T, h0 = build(spec)
    report.matrices["operator"] = matrix_payload(T)
    report.matrices["fiducial_gram"] = form_payload(h0)
    seed = getattr(a, "seed", None)
    if seed is not None:
        report.scalars["seed"] = seed
    result = invariant_metric(T, h0, cfg)
    g = result.invariant_form.gram
    report.matrices["invariant_gram"] = matrix_payload(g)
    predicted = np.diag(CLOSED_FORMS[spec.kind](spec) + 0j)
    worst = relative_change(g, predicted)
    report.residuals["metric_vs_closed_form"] = worst
    spectrum = _spectrum_match(spec, result.decomposition.eigenvalues)
    report.residuals["spectrum_vs_closed_form"] = spectrum["worst_eigenvalue_distance"]
    if "covering_radius" in spectrum:
        report.scalars["covering_radius"] = spectrum["covering_radius"]
    ok = worst <= 1e-8 and spectrum["worst_eigenvalue_distance"] <= 1e-8
    report.verdicts["outcome"] = "model_consistent" if ok else "model_mismatch"
    return 0 if ok else 2


# -- the table -----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Subcommand:
    """A subcommand's help line, its fill, and the options it reads, each
    named by its argparse dest.

    operators  required matrix files; the first sets the dimension
    forms      fiducial forms: a file, "identity", or left out for identity
    files      other JSON inputs, exactly one given; argparse reads it and
               fill gets the payload
    flags      the subcommand's own options, as add_argument settings
    tolerances the _TOLERANCE_OPTIONS the analysis reads, by dest

    The inputs digest lists the payloads of the operators, the forms and
    the files (null for one not given), then the flags' values if any.
    """

    help: str
    fill: Callable[[AnalysisReport, argparse.Namespace, ToleranceConfig], int | None]
    operators: tuple[str, ...] = ()
    forms: tuple[str, ...] = ()
    files: dict[str, dict] = dataclasses.field(default_factory=dict)
    flags: dict[str, dict] = dataclasses.field(default_factory=dict)
    tolerances: tuple[str, ...] = ("tol_cluster", "tol_unitary")


_JSON_FILE = {"type": load_json, "metavar": "FILE"}

SUBCOMMANDS = {
    "check": Subcommand(
        "decide boundedness of the power orbit", _check, ("infile",),
        flags={"generator": dict(action="store_true",
                                 help="decide similarity to self-adjoint instead")}),
    "nagy": Subcommand("invariant metric and unitarizing similarity", _nagy,
                       ("infile",), ("h0",)),
    "oracle": Subcommand("finite power average of the fiducial metric", _oracle,
                         ("infile",), ("h0",), tolerances=("horizon",)),
    "cayley": Subcommand("Cayley map between generators and evolutions", _cayley,
                         ("infile",), flags={"inverse": dict(action="store_true")},
                         tolerances=()),
    "log": Subcommand("self-adjoint logarithm of a unitarizable operator", _log,
                      ("infile",), ("h0",)),
    "altmetric": Subcommand(
        "scaled or spectrally rescaled invariant metrics", _altmetric, ("infile",), ("h0",),
        files={"weights": _JSON_FILE, "phi": _JSON_FILE}),
    "depend": Subcommand("dependence of the limit metric on the fiducial one", _depend,
                         ("infile",), ("h0", "h0_prime"),
                         tolerances=("tol_cluster", "tol_unitary", "horizon")),
    "pair": Subcommand(
        "joint metric of a commuting pair", _pair, ("t1", "t2"), ("h0",),
        flags={"shortcut": dict(action="store_true",
                                help="also test the single-pass shortcut")}),
    "heisenberg": Subcommand(
        "joint metric of a discrete Weyl triple", _heisenberg, ("t1", "t2", "t3"), ("h0",),
        flags={"relation_tol": dict(type=_relation_tol, default=RELATION_RTOL)}),
    "intertwine": Subcommand("averaged connecting map between two operators", _intertwine,
                             ("t1", "t2"), ("h0",)),
    "hamiltonian": Subcommand("check a Poisson-energy factorization of linear dynamics",
                              _hamiltonian, ("dyn", "poisson", "energy"), tolerances=()),
    "example": Subcommand(
        "build a grid model and check it against closed forms", _example,
        files={
            "spec": _JSON_FILE,
            "random": dict(
                action=_DrawSpec, dest="spec", metavar="KIND",
                help="generate a random spec of the given kind (shift, parity, "
                "or translation), seeded by UNITARIZE_SEED",
            ),
        }),
}

# the tolerance options, each with the ToleranceConfig field it sets; a
# subcommand takes those its analysis reads (Subcommand.tolerances)
_TOLERANCE_OPTIONS = {
    "tol_cluster": ("eig_cluster_tol", float),
    "tol_unitary": ("unitarity_tol", float),
    "horizon": ("cesaro_horizon", int),
}


def _option(dest: str) -> str:
    return "--in" if dest == "infile" else "--" + dest.replace("_", "-")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise InvalidInput, so they exit 1 like every other one.
    A token that reads as a negative number, exponent included (-1e-9,
    -.5E3), is an option's value, so a negative tolerance reaches the
    refusal that names its field rather than reading as a missing value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise InvalidInput(message)


def _build_parser(named) -> argparse.ArgumentParser:
    """The parser, with options for the subcommands in named alone.  Every
    subcommand keeps its help line, so the top-level help and the
    invalid-choice error list all twelve; argparse parses with the one whose
    name it reads in argv, so passing the tokens of argv as named parses
    them as a parser filled for all twelve would."""
    named = set(named)
    parser = _Parser(
        prog="unitarize",
        description="Similarity to unitary operators, invariant metrics, and "
        "everything the averaging construction touches.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, sub in SUBCOMMANDS.items():
        if name not in named:
            # argparse never parses with it, so it needs no options, -h included
            subs.add_parser(name, help=sub.help, add_help=False)
            continue
        p = subs.add_parser(name, help=sub.help)
        for dest in sub.operators:
            p.add_argument(_option(dest), dest=dest, required=True, metavar="FILE")
        for dest in sub.forms:
            p.add_argument(_option(dest), dest=dest, metavar="FILE|identity")
        # argparse cannot render the help of an empty exclusive group
        choice = p.add_mutually_exclusive_group() if sub.files else None
        for dest, settings in sub.files.items():
            choice.add_argument(_option(dest), **{"dest": dest, **settings})
        for dest, settings in sub.flags.items():
            p.add_argument(_option(dest), dest=dest, **settings)
        for dest in sub.tolerances:
            p.add_argument(_option(dest), dest=dest, type=_TOLERANCE_OPTIONS[dest][1])
        p.add_argument("--format", choices=("json", "text"), default="json")
    return parser


def _analyze(args) -> tuple[AnalysisReport, int]:
    """Load the inputs the table declares, run the fill with warnings
    recorded and domain errors turned into verdicts, and digest the inputs."""
    sub = SUBCOMMANDS[args.command]
    cfg = _config(args)
    payloads = []
    for dest in sub.operators:
        payload = load_json(getattr(args, dest))
        setattr(args, dest, parse_matrix(payload))
        payloads.append(payload)
    for dest in sub.forms:
        dim = getattr(args, sub.operators[0]).shape[0]
        form, payload = _load_fiducial(getattr(args, dest), dim)
        setattr(args, dest, form)
        payloads.append(payload)
    # example's --random fills the spec input, so two options can share a dest
    inputs = list(dict.fromkeys(s.get("dest", d) for d, s in sub.files.items()))
    if inputs and all(getattr(args, d) is None for d in inputs):
        raise InvalidInput(
            f"{args.command} needs exactly one of "
            + " or ".join(_option(d) for d in sub.files)
        )
    payloads += [getattr(args, d) for d in inputs]
    if sub.flags:
        payloads.append({dest: getattr(args, dest) for dest in sub.flags})

    # the block records every threshold the answer was computed under
    tolerances = dataclasses.asdict(cfg)
    tolerances.update(psd_tol=PSD_RTOL, cesaro_rel_tol=DRIFT_RTOL)
    report = AnalysisReport(command=args.command, inputs_digest="", tolerances=tolerances)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = sub.fill(report, args, cfg) or 0
        except DOMAIN_ERRORS as exc:
            report.verdicts["outcome"] = re.sub(
                r"(?<!^)(?=[A-Z])", "_", type(exc).__name__
            ).lower()
            report.verdicts["detail"] = str(exc)
            code = 2
    report.warnings = [str(w.message) for w in caught]
    # digested after the fill, which refuses a value it cannot read (a NaN) by name
    report.inputs_digest = inputs_digest(payloads)
    return report, code


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
        report, code = _analyze(args)
        text = report.to_json() if args.format == "json" else report.to_text()
    except UnitarizeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return code


def run() -> int:
    """The process entry: main() on the process's arguments with the cyclic
    garbage collector off.  One command allocates little garbage in cycles,
    so a collection during the run is pure cost, and freezing every object
    once the command is done spares the collection at interpreter exit from
    walking the imported modules."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
