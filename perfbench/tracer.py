"""Span tracer that times pde-lab's layers from outside the package.

Every public function listed in ``LAYER_FUNCTIONS`` is replaced, for the
duration of a traced section, by a wrapper that records one span: a name, a
start, an end and the span that was open when it began.  Spans live in flat
typed arrays (24 bytes each) and are written out once, at the end of a run.
A layer's self time is its spans' durations minus the time their child spans
cover.

The autodiff primitives get two extras.  While a primitive runs, the tracer
also wraps ``Graph.record``, so each backward closure the primitive puts on
the tape is timed and attributed to it; and the bytes and dtype of each
recorded output are counted, giving the tape size of every training step.
"""

from __future__ import annotations

import functools
import os
import time
from array import array

import numpy as np

from pde_lab import autodiff, beta_plane, cli, diagnostics, fileio, ks, model, spectral, training

# The 20 primitives the emulator and its losses reach (``sum_all`` is used
# only by gradient checking).
PRIMITIVES = (
    "add", "sub", "mul", "scale", "exp", "clamp", "absolute", "reshape",
    "transpose_last2", "permute", "narrow", "stack0", "mean_all", "matmul",
    "linear", "layer_normalize", "gelu", "softmax_lastaxis", "unfold_circular",
    "dft_modulus",
)

# (module, attribute) pairs wrapped as plain spans, named "<layer>.<attribute>".
LAYER_FUNCTIONS = {
    "spectral": (spectral, ("to_values", "to_modes")),
    "ks": (ks, ("step", "build_tables", "generate_dataset")),
    "beta_plane": (beta_plane, ("step", "draw_forcing", "zonal_velocity", "generate_dataset")),
    "model": (
        model,
        ("forward", "transformer_block", "local_attention", "predict",
         "save_checkpoint", "load_checkpoint"),
    ),
    "training": (
        training,
        ("assemble_batch", "adam_step", "mse_loss", "composite_loss", "build_sample_set"),
    ),
    "diagnostics": (
        diagnostics,
        ("rollout", "joint_pdf", "hellinger", "lyapunov_exponent", "tracking_horizon",
         "count_jets", "detect_events", "event_time_pdf"),
    ),
    "cli": (cli, ("main", "write_manifest")),
}
FILE_FUNCTIONS = {
    "write_trajectory": "bytes_written",
    "write_checkpoint": "bytes_written",
    "read_trajectory": "bytes_read",
    "read_checkpoint": "bytes_read",
}
LAYERS = ("spectral", "ks", "beta_plane", "autodiff", "model", "training",
          "diagnostics", "fileio", "cli")

# Per-layer metrics that sum the inclusive time of one or more spans.
SUMMED_SPANS = {
    "model.forward_s": ("model.forward",),
    "model.transformer_block_s": ("model.transformer_block",),
    "model.local_attention_s": ("model.local_attention",),
    "model.predict_s": ("model.predict",),
    "model.checkpoint_io_s": ("model.save_checkpoint", "model.load_checkpoint"),
    "training.assemble_batch_s": ("training.assemble_batch",),
    "training.adam_step_s": ("training.adam_step",),
    "training.loss_s": ("training.mse_loss", "training.composite_loss"),
    "training.build_sample_set_s": ("training.build_sample_set",),
    "ks.build_tables_s": ("ks.build_tables",),
    "ks.generate_dataset_s": ("ks.generate_dataset",),
    "spectral.to_values_s": ("spectral.to_values",),
    "spectral.to_modes_s": ("spectral.to_modes",),
    "beta_plane.zonal_velocity_s": ("beta_plane.zonal_velocity",),
    "beta_plane.generate_dataset_s": ("beta_plane.generate_dataset",),
    "diagnostics.rollout_s": ("diagnostics.rollout",),
    "diagnostics.joint_pdf_s": ("diagnostics.joint_pdf",),
    "diagnostics.hellinger_s": ("diagnostics.hellinger",),
    "diagnostics.lyapunov_exponent_s": ("diagnostics.lyapunov_exponent",),
    "diagnostics.tracking_horizon_s": ("diagnostics.tracking_horizon",),
    "diagnostics.count_jets_s": ("diagnostics.count_jets",),
    "diagnostics.detect_events_s": ("diagnostics.detect_events",),
    "diagnostics.event_time_pdf_s": ("diagnostics.event_time_pdf",),
    "fileio.write_trajectory_s": ("fileio.write_trajectory",),
    "fileio.read_trajectory_s": ("fileio.read_trajectory",),
    "cli.write_manifest_s": ("cli.write_manifest",),
}
COUNTED_SPANS = {
    "model.forward.calls": "model.forward",
    "model.predict.calls": "model.predict",
    "training.adam_step.calls": "training.adam_step",
    "ks.step.calls": "ks.step",
    "spectral.to_values.calls": "spectral.to_values",
    "spectral.to_modes.calls": "spectral.to_modes",
    "beta_plane.step.calls": "beta_plane.step",
    "diagnostics.count_jets.calls": "diagnostics.count_jets",
}
# Per-call timings: each gives "<name>", the median in us, and "<name>.tail",
# the highest of TAIL_PERCENTILES with at least ten samples beyond it.
TIMED_PER_CALL = {
    "ks.step_us": "ks.step",
    "beta_plane.step_us": "beta_plane.step",
    "beta_plane.draw_forcing_us": "beta_plane.draw_forcing",
}
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)


def percentiles(samples: np.ndarray) -> tuple[float, float, float]:
    """Median, tail value and tail level of a sample; zeros when it is empty."""
    if samples.size == 0:
        return 0.0, 0.0, 0.0
    median = float(np.median(samples))
    for level in TAIL_PERCENTILES:
        if samples.size * (100.0 - level) / 100.0 >= 10:
            return median, float(np.percentile(samples, level)), level
    return median, median, 50.0


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` swap the wrappers in and out."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.bwd_ns = dict.fromkeys(PRIMITIVES, 0)
        self.file_bytes = {"bytes_written": 0, "bytes_read": 0}
        # Tape accounting: the primitive currently running, whether it put a
        # node on the tape, and the running totals of the open training step.
        self._op: str | None = None
        self._recorded = False
        self._step = [0, 0, 0]  # nodes, bytes, float64 nodes
        self._batch_shape: tuple[int, ...] = ()
        self._batch_end = 0
        self.steps: list[dict] = []
        self._build_patches()

    # -- spans -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._name_ids[name]

    def _span(self, fn, name: str):
        nid = self._name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _primitive(self, fn, op: str):
        spanned = self._span(fn, f"autodiff.{op}")
        step = self._step

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = self._op, self._recorded
            self._op, self._recorded = op, False
            try:
                out = spanned(*args, **kwargs)
                if self._recorded:
                    step[0] += 1
                    step[1] += out.data.nbytes
                    step[2] += out.data.dtype == np.float64
            finally:
                self._op, self._recorded = outer
            return out

        return traced

    def _record(self, original):
        clock = time.perf_counter_ns
        bwd = self.bwd_ns

        def record(graph, backward_fn):
            op = self._op
            self._recorded = True
            if op is None:
                return original(graph, backward_fn)

            def timed_backward():
                t0 = clock()
                backward_fn()
                bwd[op] += clock() - t0

            return original(graph, timed_backward)

        return record

    def _backward(self, original):
        spanned = self._span(original, "autodiff.backward")
        clock = time.perf_counter_ns

        def backward(graph, *args, **kwargs):
            t0 = clock()
            spanned(graph, *args, **kwargs)
            nodes, nbytes, f64 = self._step
            self.steps.append({
                "batch_shape": self._batch_shape,
                "fwd_ns": t0 - self._batch_end,
                "bwd_ns": clock() - t0,
                "nodes": graph.n_nodes,
                "traced_nodes": nodes,
                "bytes": nbytes,
                "float64_nodes": f64,
            })
            self._step[:] = [0, 0, 0]

        return backward

    def _assemble_batch(self, original):
        spanned = self._span(original, "training.assemble_batch")

        def assemble_batch(*args, **kwargs):
            histories, targets = spanned(*args, **kwargs)
            self._batch_shape = tuple(histories.shape)
            self._batch_end = time.perf_counter_ns()
            return histories, targets

        return assemble_batch

    def _file(self, original, name: str, counter: str):
        spanned = self._span(original, f"fileio.{name}")

        def file_op(path, *args, **kwargs):
            if counter == "bytes_read":
                self.file_bytes[counter] += os.path.getsize(path)
            result = spanned(path, *args, **kwargs)
            if counter == "bytes_written":
                self.file_bytes[counter] += os.path.getsize(path)
            return result

        return file_op

    def _build_patches(self) -> None:
        patches = self._patches
        for op in PRIMITIVES:
            original = getattr(autodiff, op)
            patches.append((autodiff, op, original, self._primitive(original, op)))
        graph = autodiff.Graph
        patches.append((graph, "record", graph.record, self._record(graph.record)))
        patches.append((graph, "backward", graph.backward, self._backward(graph.backward)))
        for layer, (module, attrs) in LAYER_FUNCTIONS.items():
            for attr in attrs:
                original = getattr(module, attr)
                if (module, attr) == (training, "assemble_batch"):
                    wrapped = self._assemble_batch(original)
                else:
                    wrapped = self._span(original, f"{layer}.{attr}")
                patches.append((module, attr, original, wrapped))
        for attr, counter in FILE_FUNCTIONS.items():
            original = getattr(fileio, attr)
            patches.append((fileio, attr, original, self._file(original, attr, counter)))

    def install(self) -> None:
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def mark(self) -> dict:
        """Snapshot of every counter; two marks delimit a section of the run."""
        return {
            "spans": len(self.name),
            "steps": len(self.steps),
            "bwd_ns": dict(self.bwd_ns),
            "file_bytes": dict(self.file_bytes),
        }

    # -- aggregation -------------------------------------------------------

    def steps_in(self, marks: tuple[dict, dict]) -> list[dict]:
        """Training steps recorded between two marks."""
        begin, end = marks
        return self.steps[begin["steps"] : end["steps"]]

    def summarize(self, once: list[tuple], averaged: list[tuple] = ()) -> dict:
        """Per-layer metrics: the sections in ``once`` plus the mean of those in ``averaged``.

        Each section is a ``(begin_mark, end_mark)`` pair.  Per-call
        percentiles and tape sizes pool every span and step of all sections.
        """
        names = np.frombuffer(self.name, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        child = np.zeros(len(dur), dtype=np.int64)
        np.add.at(child, parents[parents >= 0], dur[parents >= 0])
        self_ns = dur - child

        n_names = len(self.span_names)
        per_call = {name: [] for name in TIMED_PER_CALL}
        steps: list[dict] = []

        def sums(sections):
            """Integer-valued totals over sections: calls, time, self time, backward, bytes."""
            out = [np.zeros(n_names), np.zeros(n_names), np.zeros(n_names),
                   dict.fromkeys(PRIMITIVES, 0), {"bytes_written": 0, "bytes_read": 0}]
            for begin, end in sections:
                sl = slice(begin["spans"], end["spans"])
                ids = names[sl]
                out[0] += np.bincount(ids, minlength=n_names)
                out[1] += np.bincount(ids, weights=dur[sl], minlength=n_names)
                out[2] += np.bincount(ids, weights=self_ns[sl], minlength=n_names)
                for op in PRIMITIVES:
                    out[3][op] += end["bwd_ns"][op] - begin["bwd_ns"][op]
                for key in out[4]:
                    out[4][key] += end["file_bytes"][key] - begin["file_bytes"][key]
                for name, span in TIMED_PER_CALL.items():
                    per_call[name].append(dur[sl][ids == self._name_ids[span]])
                steps.extend(self.steps_in((begin, end)))
            return out

        first, rest = sums(once), sums(averaged)
        n = max(len(averaged), 1)
        calls, total, own = (first[i] + rest[i] / n for i in range(3))
        bwd = {op: first[3][op] + rest[3][op] / n for op in PRIMITIVES}
        file_bytes = {key: first[4][key] + rest[4][key] / n for key in first[4]}

        def of(table, span):
            return float(table[self._name_ids[span]])

        m: dict[str, float] = {}
        for op in PRIMITIVES:
            m[f"autodiff.{op}.calls"] = of(calls, f"autodiff.{op}")
            m[f"autodiff.{op}.fwd_s"] = of(total, f"autodiff.{op}") / 1e9
            m[f"autodiff.{op}.bwd_s"] = bwd[op] / 1e9
        m["autodiff.backward_s"] = of(total, "autodiff.backward") / 1e9
        # The largest tape one training step records, and the float64 share
        # of every node recorded.
        m["autodiff.tape_nodes_per_step"] = float(max((s["nodes"] for s in steps), default=0))
        m["autodiff.tape_bytes_per_step"] = float(max((s["bytes"] for s in steps), default=0))
        n_nodes = sum(s["traced_nodes"] for s in steps)
        f64_nodes = sum(s["float64_nodes"] for s in steps)
        m["autodiff.tape_float64_share"] = f64_nodes / n_nodes if n_nodes else 0.0
        for name, spans in SUMMED_SPANS.items():
            m[name] = sum(of(total, span) for span in spans) / 1e9
        for name, span in COUNTED_SPANS.items():
            m[name] = of(calls, span)
        for name, pooled in per_call.items():
            samples = np.concatenate(pooled) if pooled else np.zeros(0)
            median, tail, level = percentiles(samples)
            m[name] = median / 1e3
            m[name + ".tail"] = tail / 1e3
            m[name + ".tail_percentile"] = level
            m[name + ".samples"] = float(samples.size)
        m["fileio.bytes_written"] = file_bytes["bytes_written"]
        m["fileio.bytes_read"] = file_bytes["bytes_read"]
        for layer in LAYERS:
            ids = [i for i, n in enumerate(self.span_names) if n.split(".")[0] == layer]
            m[f"{layer}.self_s"] = float(own[ids].sum()) / 1e9
        return m

    def save(self, path) -> None:
        np.savez(
            path,
            run_id=self.run_id,
            span_names=np.array(self.span_names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
