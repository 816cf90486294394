"""Per-layer tracing by wrapping stablyfree's public functions from outside.

Each target is wrapped at the name its callers look up, for example
`koszul.rank_and_kernel` (how the Koszul layer reaches the linalg layer)
or `steenrod.reduced_power_on_elementary` (how steenrod reaches the
symmetric layer).  A call from another layer opens a span; a call from
the same layer only counts, its time staying with the enclosing span of
that layer.  A layer's self time is the duration of its spans minus the
time covered by their child spans.  Spans are aggregated as they close,
per layer and per wrapped name, because a run makes millions of them.

A target that no longer exists (after a rename, say) is reported as
missing and skipped, and a counter that no longer fits a target's
arguments or result is reported as broken, so the traced run keeps
working across refactors.
"""

from __future__ import annotations

import functools
import inspect

LAYERS = ("cli", "obstruction", "koszul", "linalg", "steenrod", "symmetric",
          "algebra", "modp")

# (layer, name under the stablyfree package)
TARGETS = (
    ("cli", "cli.main"),
    ("steenrod", "cli.apply_P_polynomial"),
    ("steenrod", "cli.apply_P_primitive"),
    ("steenrod", "cli.verify_axiom"),
    ("steenrod", "steenrod.apply_P_polynomial"),
    ("steenrod", "obstruction.apply_P_primitive"),
    ("symmetric", "steenrod.reduced_power_on_elementary"),
    ("algebra", "cli.polynomial_algebra"),
    ("algebra", "steenrod.polynomial_algebra"),
    ("algebra", "steenrod.bidegree_of"),
    ("algebra", "koszul.iter_monomials"),
    ("algebra", "algebra.Element.__add__"),
    ("algebra", "algebra.Element.__mul__"),
    ("algebra", "algebra.Element.__pow__"),
    ("algebra", "algebra.Element.__eq__"),
    ("algebra", "algebra.Element.render"),
    ("algebra", "algebra.AlgebraPresentation.from_terms"),
    ("algebra", "algebra.AlgebraPresentation.monomial_element"),
    ("algebra", "algebra.AlgebraPresentation.gen"),
    ("algebra", "models.GroupModel.group_algebra"),
    ("modp", "cli.is_prime"),
    ("modp", "steenrod.binom_mod_p"),
    ("modp", "obstruction.binom_mod_p"),
    ("modp", "obstruction.exponent_n"),
    ("modp", "obstruction.raynaud_number"),
    ("koszul", "homogeneous_space_tor"),
    ("koszul", "homogeneous_space_odd_basis"),
    ("koszul", "cli.homogeneous_space_tor"),
    ("koszul", "cli.homogeneous_space_odd_basis"),
    ("koszul", "obstruction.homogeneous_space_odd_basis"),
    ("koszul", "koszul.homogeneous_space_tor"),
    ("koszul", "koszul.koszul_homology"),
    ("linalg", "koszul.rank_and_kernel"),
    ("linalg", "koszul.quotient_basis"),
    ("obstruction", "check_gl_quotient"),
    ("obstruction", "check_symplectic"),
    ("obstruction", "check_orthogonal"),
    ("obstruction", "check_cohomological"),
    ("obstruction", "divisibility_scan"),
    ("obstruction", "cli.check_gl_quotient"),
    ("obstruction", "cli.check_symplectic"),
    ("obstruction", "cli.check_orthogonal"),
    ("obstruction", "cli.check_cohomological"),
    ("obstruction", "cli.divisibility_scan"),
    ("obstruction", "obstruction.check_gl_quotient"),
)

# counters kept besides calls and self time
COUNTERS = ("steenrod.result_terms", "symmetric.seed_calls", "algebra.mul_calls",
            "koszul.tor_calls", "koszul.builds", "koszul.chain_dim",
            "koszul.tor_dim", "linalg.columns", "linalg.rank",
            "obstruction.witnesses", "cli.output_bytes")


def _count_terms(tracer, args, result):
    tracer.counters["steenrod.result_terms"] += len(result.terms)


def _count_seed(tracer, args, result):
    tracer.counters["symmetric.seed_calls"] += 1
    tracer.seed_keys.add(args)


def _count_mul(tracer, args, result):
    tracer.counters["algebra.mul_calls"] += 1


def _count_tor(tracer, args, result):
    tracer.counters["koszul.tor_calls"] += 1


def _count_build(tracer, args, result):
    c = tracer.counters
    c["koszul.builds"] += 1
    c["koszul.chain_dim"] += sum(result.chain_dims.values())
    c["koszul.tor_dim"] += result.total_dimension()


def _count_elimination(tracer, args, result):
    tracer.counters["linalg.columns"] += len(args[0])
    tracer.counters["linalg.rank"] += result[0]


def _count_quotient(tracer, args, result):
    tracer.counters["linalg.columns"] += len(args[0]) + len(args[1])


def _count_witnesses(tracer, args, result):
    tracer.counters["obstruction.witnesses"] += len(result.witnesses)


HOOKS = {
    "apply_P_polynomial": _count_terms,
    "apply_P_primitive": _count_terms,
    "reduced_power_on_elementary": _count_seed,
    "__mul__": _count_mul,
    "homogeneous_space_tor": _count_tor,
    "koszul_homology": _count_build,
    "rank_and_kernel": _count_elimination,
    "quotient_basis": _count_quotient,
    "check_gl_quotient": _count_witnesses,
    "check_symplectic": _count_witnesses,
    "check_orthogonal": _count_witnesses,
    "check_cohomological": _count_witnesses,
}


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.stack: list[list] = []  # [layer, time covered by child spans]
        self.self_time = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.by_name: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.seed_keys: set = set()
        self.missing: list[str] = []
        self.broken_counters: set[str] = set()  # names whose result no longer fits
        self._installed: list[tuple[object, str, object]] = []

    def install(self, package) -> list[str]:
        """Wrap every target that exists; return the names that do not."""
        for layer, name in TARGETS:
            *owner_path, attr = name.split(".")
            owner = package
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                self.missing.append(name)
                continue
            setattr(owner, attr, self._wrap(layer, name, original))
            self._installed.append((owner, attr, original))
        return self.missing

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, layer: str, name: str, fn):
        hook = HOOKS.get(name.rsplit(".", 1)[-1])
        stats = self.by_name.setdefault(name, [0, 0.0])
        stack, self_time, calls, clock = self.stack, self.self_time, self.calls, self.clock
        materialize = inspect.isgeneratorfunction(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            stats[0] += 1
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
                if materialize:
                    result = iter(list(result))
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                    if materialize:
                        result = iter(list(result))
                finally:
                    duration = clock() - start
                    stack.pop()
                    own = duration - frame[1]
                    self_time[layer] += own
                    stats[1] += own
                    if stack:
                        stack[-1][1] += duration
            if hook is not None:
                try:
                    hook(tracer, args, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    tracer.broken_counters.add(name)
            return result

        return wrapper
