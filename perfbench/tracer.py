"""Span tracing from outside the package, for the traced (`--trace 1`) run.

`Tracer.install` replaces public functions and methods of the skeltext
modules with wrappers at class or module level. Internal callers look these
names up at call time, so calls made inside the package are traced too. Each
wrapper records a span: name, start, end, parent span and example index.
Spans stay in memory; self times are computed from them when the run ends.

Tensor construction is too frequent for one span per tensor. It is counted
instead, and its time is charged to the innermost open span, so that span's
self time excludes it.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter_ns

# span fields
NAME, START, END, PARENT, EXAMPLE, INIT_NS = range(6)

ATTENTION = object()  # self or cross attention, decided per call


def _traced_targets():
    from skeltext import autograd, decoding, editor, encoder, metrics, nn, oracle, pointer, training

    heads = "editor.heads"
    return [
        (autograd.Tensor, "backward", "autograd.backward"),
        (nn.MultiHeadAttention, "__call__", ATTENTION),
        (nn.FeedForward, "__call__", "nn.feed_forward"),
        (nn.LayerNorm, "__call__", "nn.layer_norm"),
        (nn.Adam, "step", "nn.adam_step"),
        (encoder.TableEncoder, "__call__", "encoder.encode"),
        (pointer.SkeletonPointer, "decoder_states", "pointer.decoder_states"),
        (pointer.SkeletonPointer, "pointer_attention", "pointer.pointer_attention"),
        (pointer.SkeletonPointer, "beam_search", "pointer.beam_search"),
        (pointer.SkeletonPointer, "loss", "pointer.loss"),
        (editor.EditRealizer, "decode_hidden", "editor.decode_hidden"),
        (editor.EditRealizer, "deletion_logits", heads),
        (editor.EditRealizer, "placeholder_logits", heads),
        (editor.EditRealizer, "token_logits", heads),
        (editor.EditRealizer, "argmax_fill", heads),
        (oracle, "lcs_align", "oracle.lcs_align"),
        (oracle, "build_edit_supervision", "oracle.build_edit_supervision"),
        (oracle, "edit_loss_from_supervision", "oracle.edit_loss_from_supervision"),
        (decoding, "iterate", "decoding.iterate"),
        (decoding, "masked_delete", "decoding.masked_delete"),
        (decoding, "insert_and_fill", "decoding.insert_and_fill"),
        (metrics, "evaluate_outputs", "metrics.evaluate_outputs"),
        (training, "train_pointer", "training.train_pointer"),
        (training, "train_editor", "training.train_editor"),
    ]


# Work counted at a boundary, from the call's arguments: (counter, function).
_WORK = {
    "encoder.encode": ("encoder.encode.cells", lambda a: len(a[1])),
    "pointer.decoder_states": ("pointer.decoder_states.tokens", lambda a: len(a[1])),
    "editor.decode_hidden": ("editor.decode_hidden.tokens", lambda a: len(a[1])),
    "oracle.lcs_align": ("oracle.lcs_align.cells", lambda a: len(a[0]) * len(a[1])),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.example = -1
        self.tensors = 0
        self.tensor_ns = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        work = _WORK.get(name) if isinstance(name, str) else None
        fixed = self._id(name) if isinstance(name, str) else None
        self_id, cross_id = self._id("nn.self_attention"), self._id("nn.cross_attention")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fixed is None:  # MultiHeadAttention(x, memory, ...)
                name_id = self_id if args[2] is args[1] else cross_id
            else:
                name_id = fixed
                # A group (the edit heads) calling into itself is one call.
                if stack and spans[stack[-1]][NAME] == name_id:
                    return fn(*args, **kwargs)
            if work is not None:
                counts[work[0]] += work[1](args)
            span = [name_id, 0, 0, stack[-1] if stack else -1, self.example, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                stack.pop()

        return traced

    def _wrap_tensor_init(self, init):
        spans, stack = self.spans, self._stack

        @functools.wraps(init)
        def traced_init(tensor, *args, **kwargs):
            start = perf_counter_ns()
            init(tensor, *args, **kwargs)
            elapsed = perf_counter_ns() - start
            self.tensors += 1
            self.tensor_ns += elapsed
            if stack:
                spans[stack[-1]][INIT_NS] += elapsed

        return traced_init

    def install(self) -> None:
        from skeltext import autograd

        for owner, attr, name in _traced_targets():
            original = owner.__dict__[attr]
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        self._restore.append((autograd.Tensor, "__init__", autograd.Tensor.__dict__["__init__"]))
        autograd.Tensor.__init__ = self._wrap_tensor_init(autograd.Tensor.__dict__["__init__"])

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, inclusive ns and self ns."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict] = {n: {"calls": 0, "ns": 0, "self_ns": 0} for n in self.names}
        for i, span in enumerate(self.spans):
            entry = out[self.names[span[NAME]]]
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["ns"] += duration
            entry["self_ns"] += duration - child_ns[i] - span[INIT_NS]
        return out

    def write(self, path: str) -> None:
        """All spans as JSON lines, written once at the end of the run."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": self.names[span[NAME]], "start_ns": span[START],
                    "end_ns": span[END], "parent": span[PARENT],
                    "example": span[EXAMPLE], "tensor_init_ns": span[INIT_NS],
                }) + "\n")
