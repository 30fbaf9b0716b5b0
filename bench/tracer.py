"""Outside-in tracer for seaqm.

Wraps public callables of the installed `seaqm` modules with timing spans,
from the benchmark's side only: every module namespace that binds a target
function gets the same wrapper, so calls made through `from .x import f`
aliases are counted too.  `LaurentPoly.__mul__` is wrapped on the class,
which covers every exact product.

Spans nest.  A span's self time is its total minus the time of the spans it
directly contains.  Counters are kept next to the spans.  Objects needed for
the exactness digests are held by reference during the run and hashed only
in `digests()`, after the timed call has returned.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter


class Stat:
    __slots__ = ("calls", "total", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.total = 0.0      # inclusive time, outermost activations only
        self.self_time = 0.0  # exclusive of directly nested spans
        self.depth = 0


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:32]


class Tracer:
    """Span timer and counters for one seaqm process."""

    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counts: Counter = Counter()
        self.group_s: dict[int, float] = defaultdict(float)  # critical_lambda time per l
        self._stack = [0.0]  # child-time accumulator of every open span
        self._undo: list[tuple[object, str, object]] = []
        self._energy: dict[int, object] = {}  # id(coeffs) -> EnergySeries (kept alive)
        self._chains: dict[int, object] = {}
        self._pades: list[object] = []
        self.warnings: list[str] = []  # reported by the runner, which keeps the child's stderr

    # -- spans -----------------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """Return `fn` wrapped in span `name`; `after(args, kwargs, result, dt)`
        runs once the call has returned, inside the caller's span."""
        stat = self.stats[name]
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stat.depth += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack[-2] += dt
                stat.self_time += dt - stack.pop()
                stat.depth -= 1
                stat.calls += 1
                if stat.depth == 0:
                    stat.total += dt
            if after is not None:
                after(args, kwargs, result, dt)
            return result

        return wrapper

    def call(self, name: str, fn, *args):
        """Run `fn(*args)` as the outermost span `name`."""
        return self.wrap(name, fn)(*args)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Wrap the target callables in every loaded seaqm module namespace."""

        def on_mul(args, kwargs, result, dt):
            a, b = args
            self.counts["exact.mul.term_products"] += len(a) * (
                len(b) if isinstance(b, LaurentPoly) else 1
            )

        def on_chain(args, kwargs, result, dt):
            self._chains[id(result)] = result

        def on_energy(args, kwargs, result, dt):
            self._energy[id(result.coeffs)] = result

        def on_pade(args, kwargs, result, dt):
            series = args[0] if args else kwargs["series"]
            if id(series) in self._energy:
                self._pades.append(result)

        def on_critical(args, kwargs, result, dt):
            self.group_s[args[1] if len(args) > 1 else kwargs["l"]] += dt
            self.counts["resummation.pole_retries"] += sum(
                "reduced n" in note for note in result.notes
            )

        def on_fd(args, kwargs, result, dt):
            grid = args[1] if len(args) > 1 else kwargs["grid"]
            self.counts["oracle.grid_points"] += (
                max(grid.points // 2, 3) + grid.points + 2 * grid.points
            )

        targets = [
            ("seaqm.engine", "solve_chain", "engine.solve_chain", on_chain),
            ("seaqm.engine", "convolution_B", "engine.convolution_B", None),
            ("seaqm.engine", "solve_riccati_order", "engine.solve_riccati_order", None),
            ("seaqm.engine", "riccati_residual", "engine.riccati_residual", None),
            ("seaqm.spectra", "hulthen_energy_series", "spectra.energy_series", on_energy),
            ("seaqm.spectra", "anharmonic_energy_series", "spectra.energy_series", on_energy),
            ("seaqm.spectra", "evaluate_truncated", "spectra.evaluate_truncated", None),
            ("seaqm.resummation", "pade", "resummation.pade", on_pade),
            ("seaqm.resummation", "pade_with_fallback", "resummation.pade_with_fallback", None),
            ("seaqm.resummation", "pade_eval", "resummation.pade_eval", None),
            ("seaqm.resummation", "reconstruct_energy", "resummation.reconstruct_energy", None),
            ("seaqm.resummation", "critical_lambda", "resummation.critical_lambda", on_critical),
            ("seaqm.states", "build_eigenstate", "states.build_eigenstate", None),
            ("seaqm.states", "evaluate_state", "states.evaluate_state", None),
            ("seaqm.states", "state_lambda_series", "states.state_lambda_series", None),
            ("seaqm.states", "normalize_function", "states.normalize_function", None),
            ("seaqm.oracle", "fd_eigenvalues_with_error", "oracle.fd_eigenvalues_with_error", on_fd),
            ("seaqm.reference", "hulthen_energy_coefficient", "reference", None),
            ("seaqm.reference", "anharmonic_energy_coefficient", "reference", None),
            ("seaqm.reference", "critical_value", "reference", None),
            ("seaqm.reference", "critical_tolerance", "reference", None),
        ]
        modules = {}
        for module_name in dict.fromkeys(["seaqm.exact", *(t[0] for t in targets)]):
            if module_name not in sys.modules:  # deferred by seaqm: loaded here, outside any span
                self.warnings.append(f"tracer: {module_name} not loaded by `import seaqm.cli`; importing it")
            modules[module_name] = importlib.import_module(module_name)
        LaurentPoly = modules["seaqm.exact"].LaurentPoly
        namespaces = [m for k, m in list(sys.modules.items()) if k == "seaqm" or k.startswith("seaqm.")]
        for module_name, attr, span, after in targets:
            fn = getattr(modules[module_name], attr, None)
            if fn is None:  # renamed or removed: its metrics read 0
                self.warnings.append(f"tracer: {module_name}.{attr} not found; not traced")
                continue
            wrapper = self.wrap(span, fn, after)
            for ns in namespaces:
                for key in [k for k, v in vars(ns).items() if v is fn]:
                    self._undo.append((ns, key, fn))
                    setattr(ns, key, wrapper)
        self._undo.append((LaurentPoly, "__mul__", LaurentPoly.__mul__))
        LaurentPoly.__mul__ = self.wrap("exact.mul", LaurentPoly.__mul__, on_mul)

    def uninstall(self) -> None:
        for ns, key, value in reversed(self._undo):
            setattr(ns, key, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def digests(self) -> list[str]:
        """Hashes of every distinct solved chain and every exact Padé
        approximant built on an energy series during the traced call."""
        out = {"chain:" + _digest(c.dumps()) for c in self._chains.values()}
        out |= {"pade:" + _digest(json.dumps(p.to_json(), sort_keys=True)) for p in self._pades}
        return sorted(out)

    def layer_metrics(self) -> dict[str, float]:
        """Raw per-layer numbers of one traced call.  All add up across the
        operations of a pass except `max_group_s`; the runner forms the
        ratios from their parts."""
        s = self.stats
        cache = _chain_cache_info()
        return {
            "exact.mul.calls": s["exact.mul"].calls,
            "exact.mul.term_products": self.counts["exact.mul.term_products"],
            "exact.mul.s": s["exact.mul"].total,
            "engine.solve_chain.s": s["engine.solve_chain"].total,
            "engine.convolution_B.s": s["engine.convolution_B"].total,
            "engine.solve_riccati_order.s": s["engine.solve_riccati_order"].total,
            "engine.riccati_residual.s": s["engine.riccati_residual"].total,
            "engine.rungs_solved": cache.misses if cache else 0,
            "engine.residual_checks": s["engine.riccati_residual"].calls,
            "engine.chain_cache.hits": cache.hits if cache else 0,
            "engine.chain_cache.lookups": (cache.hits + cache.misses) if cache else 0,
            "spectra.evaluate_truncated.calls": s["spectra.evaluate_truncated"].calls,
            "spectra.evaluate_truncated.s": s["spectra.evaluate_truncated"].total,
            "resummation.pade.calls": s["resummation.pade"].calls,
            "resummation.pade.s": s["resummation.pade"].total,
            "resummation.pade_with_fallback.calls": s["resummation.pade_with_fallback"].calls,
            "resummation.pade_eval.calls": s["resummation.pade_eval"].calls,
            "resummation.pade_eval.s": s["resummation.pade_eval"].total,
            "resummation.critical_lambda.self_s": s["resummation.critical_lambda"].self_time,
            "resummation.pole_retries": self.counts["resummation.pole_retries"],
            "resummation.critical_lambda.max_group_s": max(self.group_s.values(), default=0.0),
            "states.build_eigenstate.s": s["states.build_eigenstate"].total,
            "states.evaluate_state.calls": s["states.evaluate_state"].calls,
            "states.evaluate_state.s": s["states.evaluate_state"].total,
            "states.state_lambda_series.calls": s["states.state_lambda_series"].calls,
            "states.state_lambda_series.s": s["states.state_lambda_series"].total,
            "states.normalize_function.self_s": s["states.normalize_function"].self_time,
            "oracle.fd_eigenvalues_with_error.calls": s["oracle.fd_eigenvalues_with_error"].calls,
            "oracle.fd_eigenvalues_with_error.s": s["oracle.fd_eigenvalues_with_error"].total,
            "oracle.grid_points": self.counts["oracle.grid_points"],
            "reference.s": s["reference"].total,
            "cli.self_s": s["cli"].self_time,
        }


def _chain_cache_info():
    """Hits and misses of the engine's chain cache; a miss solves one rung."""
    cached = getattr(sys.modules.get("seaqm.engine"), "_solve_chain_cached", None)
    return cached.cache_info() if hasattr(cached, "cache_info") else None
