"""Benchmark-side tracing of histotet's layers.

Spans are recorded around the calls into each package module by patching,
from outside the program, the names its callers look up:

    cli.main (called by the worker)      -> cli.main
    open() inside cli                    -> cli.write
    cli.convergence_study / grid_search  -> experiment.study
    experiment.build_dof_table           -> experiment.dof_table
    experiment.assemble_H, element.assemble_H -> element.assemble
    element.unisolvence_check            -> element.check
    densities.Density.moment / .rule     -> densities.moment / densities.rule
    quadrature/densities.simplex_rule_weighted -> quadrature.rule
    experiment.build_mesh                -> mesh.build
    the target callables handed to cli   -> targets.eval
    cli.loglog_svg                       -> plots.svg

Nothing inside src/ is edited.  Spans stay in memory and are reduced to
per-layer numbers once the workload has finished.
"""

import builtins
import contextlib
import functools
import threading
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli",
    "experiment",
    "element",
    "densities",
    "quadrature",
    "mesh",
    "targets",
    "plots",
)


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans = []  # (layer, name, depth, start, end)
        self.counts = Counter()
        self.study_cpu_s = 0.0
        self.study_wall_s = 0.0
        self._lock = threading.Lock()
        self._stacks = {}
        self._main = threading.get_ident()
        self._method = None
        self._study = 0
        self._pair_cells = {}  # (study, function, n) -> cells
        self._method_pairs = defaultdict(set)  # method -> {(study, function, n)}

    def _begin(self):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            depth = stack[-1] + 1
        elif tid != self._main and self._stacks.get(self._main):
            # A pool worker's first span nests under the span its submitter waits in.
            depth = self._stacks[self._main][-1] + 1
        else:
            depth = 1
        stack.append(depth)
        return stack, depth, time.monotonic()

    def _end(self, name, token):
        end = time.monotonic()
        stack, depth, start = token
        stack.pop()
        self.spans.append((name.split(".", 1)[0], name, depth, start, end))
        with self._lock:
            self.counts[name + ".calls"] += 1

    @contextlib.contextmanager
    def span(self, name):
        """Record one span called name around the body of a with statement.

        The layer is the part of name before the first dot.
        """
        token = self._begin()
        try:
            yield
        finally:
            self._end(name, token)

    def wrap(self, name, fn, on_result=None):
        """Wrap fn so that each call records a span called name.

        on_result(args, result) may update counters after a successful call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self._begin()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(name, token)
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- counters fed by the wrappers -------------------------------------

    def count_points(self, _args, values):
        n = int(getattr(values, "size", 1))
        with self._lock:
            self.counts["targets.points"] += n
            if self._method is not None:
                self.counts["targets.points." + self._method] += n

    def count_mesh(self, _args, mesh):
        cells = len(mesh)
        self.counts["mesh.cells"] += cells
        # cell_vertex_array is filled lazily; count it at its final size.
        self.counts["mesh.vertex_bytes"] += (
            mesh.vertices.nbytes + mesh.cells.nbytes + cells * 4 * 3 * 8
        )

    def enter_study(self, method):
        self._study += 1
        self._method = method

    def enter_row(self, method, function_id, mesh):
        key = (self._study, function_id, mesh.n)
        self._method = method
        self._pair_cells[key] = len(mesh)
        self._method_pairs[method].add(key)

    # -- reduction ---------------------------------------------------------

    def span_totals(self, name):
        """Summed duration of every span called name (busy time over threads)."""
        return sum(end - start for _, n, _, start, end in self.spans if n == name)

    def self_times(self, t_start, t_end):
        """Wall time of [t_start, t_end] shared out among layers.

        Each instant goes to the layer of the deepest span open at that
        instant, split evenly when layers tie at that depth; instants with
        no open span are returned under None (unattributed).  On one thread
        this is the usual span-minus-children self time.  The parts sum to
        t_end - t_start.
        """
        events = []
        for layer, _, depth, start, end in self.spans:
            events.append((start, 1, depth, layer))
            events.append((end, -1, depth, layer))
        events.sort(key=lambda e: (e[0], e[1]))
        shares = defaultdict(float)
        open_spans = Counter()
        prev = t_start
        for t, delta, depth, layer in events:
            if t > prev:
                self._share(shares, open_spans, t - prev)
                prev = t
            key = (depth, layer)
            open_spans[key] += delta
            if open_spans[key] == 0:
                del open_spans[key]
        if t_end > prev:
            self._share(shares, open_spans, t_end - prev)
        return shares

    @staticmethod
    def _share(shares, open_spans, dt):
        if not open_spans:
            shares[None] += dt
            return
        top = max(depth for depth, _ in open_spans)
        layers = {layer for depth, layer in open_spans if depth == top}
        for layer in layers:
            shares[layer] += dt / len(layers)

    def points_per_cell(self):
        """Target points per cell of each distinct (function, mesh) pair.

        Pairs are counted per study call, so a workload that runs two
        studies on the same meshes counts them twice.
        """
        total_cells = sum(self._pair_cells.values())
        out = {"": self.counts["targets.points"] / total_cells if total_cells else 0.0}
        for method in ("classical", "fv", "vol", "ef"):
            cells = sum(self._pair_cells[k] for k in self._method_pairs.get(method, ()))
            points = self.counts["targets.points." + method]
            out[method] = points / cells if cells else 0.0
        return out


@contextlib.contextmanager
def _timed_open(tracer, *args, **kwargs):
    with tracer.span("cli.write"), builtins.open(*args, **kwargs) as handle:
        yield handle


def install(tracer):
    """Patch histotet's call sites so that every layer boundary records a span."""
    from histotet import cli, densities, element, experiment, quadrature

    experiment.build_dof_table = tracer.wrap("experiment.dof_table", experiment.build_dof_table)
    assemble = tracer.wrap("element.assemble", element.assemble_H)
    experiment.assemble_H = assemble
    element.assemble_H = assemble
    element.unisolvence_check = tracer.wrap("element.check", element.unisolvence_check)
    densities.Density.moment = tracer.wrap("densities.moment", densities.Density.moment)
    densities.Density.rule = tracer.wrap("densities.rule", densities.Density.rule)
    rule = tracer.wrap("quadrature.rule", quadrature.simplex_rule_weighted)
    quadrature.simplex_rule_weighted = rule
    densities.simplex_rule_weighted = rule
    experiment.build_mesh = tracer.wrap("mesh.build", experiment.build_mesh, tracer.count_mesh)
    cli.loglog_svg = tracer.wrap("plots.svg", cli.loglog_svg)
    # A module global named open shadows the builtin for cli's CSV and JSON writes only.
    cli.open = functools.partial(_timed_open, tracer)
    cli.convergence_study = _study(tracer, cli.convergence_study, lambda args: None)
    # Tunable kinds are named like the method ids of their configs.
    cli.grid_search = _study(tracer, cli.grid_search, lambda args: args[0].kind)

    engine = experiment._ErrorEngine
    post_init, l1_on_mesh = engine.__post_init__, engine.l1_on_mesh

    def counted_post_init(self):
        tracer.counts["experiment.engines"] += 1
        post_init(self)

    def l1_with_context(self, f, mesh, *args, **kwargs):
        tracer.enter_row(self.cfg.method_id, f.id, mesh)
        return l1_on_mesh(self, f, mesh, *args, **kwargs)

    engine.__post_init__ = counted_post_init
    engine.l1_on_mesh = l1_with_context


def _study(tracer, fn, method_of):
    traced = tracer.wrap("experiment.study", fn)

    @functools.wraps(fn)
    def study(*args, **kwargs):
        tracer.enter_study(method_of(args))
        wall, cpu = time.monotonic(), time.process_time()
        try:
            return traced(*args, **kwargs)
        finally:
            tracer.study_wall_s += time.monotonic() - wall
            tracer.study_cpu_s += time.process_time() - cpu

    return study


def counting_target(tracer, target):
    """Same TargetFunction, with every evaluation traced and its points counted."""
    from histotet.targets import TargetFunction

    return TargetFunction(target.id, tracer.wrap("targets.eval", target.fn, tracer.count_points))
