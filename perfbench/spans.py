"""Per-layer tracing for the benchmark, from outside the program.

A `Tracer` replaces module attributes with wrappers for the duration of a
`with` block and restores them afterwards. Each function is wrapped at the
name its caller looks up: `protocol.token_respond` calls `partial_decrypt`
through the name `protocol` imported, so that name is wrapped as well as
`nscrypt.partial_decrypt`. A call passes through exactly one wrapper, so
nothing is counted twice.

Span wrappers record calls and self time: a span's duration minus the time
its nested spans took. Counter wrappers record calls only; they are used
for functions called so often (`is_probable_prime`, `evaluate`) that timing
each call would distort the figures of the span around them.
"""

from __future__ import annotations

import time
from collections import defaultdict

# (module name, attribute, metric stem, kind). Several attributes may share
# a stem: they are the same layer function seen from different callers.
HOOKS = (
    ("numtheory", "prime_index", "numtheory.prime_index", "span"),
    ("numtheory", "is_probable_prime", "numtheory.is_probable_prime", "count"),
    ("nscrypt", "keygen", "nscrypt.keygen", "span"),
    ("nscrypt", "encrypt", "nscrypt.encrypt", "span"),
    ("protocol", "encrypt", "nscrypt.encrypt", "span"),
    ("nscrypt", "partial_decrypt", "nscrypt.partial_decrypt", "span"),
    ("protocol", "partial_decrypt", "nscrypt.partial_decrypt", "span"),
    ("policy", "parse", "policy.parse", "span"),
    ("policy", "authorized_family", "policy.authorized_family", "span"),
    ("policy", "evaluate", "policy.evaluate", "count"),
    ("sharesplit", "bl_split", "sharesplit.bl_split", "span"),
    ("sharesplit", "slots_packed", "sharesplit.slots_packed", "span"),
    ("sharesplit", "issue_monotone", "sharesplit.issue", "span"),
    ("sharesplit", "issue_sequence", "sharesplit.issue", "span"),
    ("protocol", "make_challenge", "protocol.make_challenge", "span"),
    ("protocol", "token_respond", "protocol.token_respond", "span"),
    ("protocol", "merge_monotone", "protocol.merge", "span"),
    ("protocol", "merge_sequence", "protocol.merge", "span"),
    ("protocol", "merge_responses", "protocol.merge", "span"),
    ("protocol", "verify", "protocol.verify", "span"),
    ("protocol", "audit", "protocol.audit", "span"),
    ("files", "dumps", "files.dumps", "span"),
    ("files", "from_document", "files.from_document", "span"),
)


class Tracer:
    """Accumulates calls and self time per metric stem while installed."""

    def __init__(self, modules: dict):
        self._modules = modules
        self._saved: list[tuple[object, str, object]] = []
        self._open: list[float] = []  # time covered by child spans, per open span
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)

    def _span(self, stem: str, fn):
        calls, self_s, open_spans = self.calls, self.self_s, self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[stem] += elapsed - open_spans.pop()
                calls[stem] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        return wrapper

    def _count(self, stem: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[stem] += 1
            return fn(*args, **kwargs)

        return wrapper

    def __enter__(self) -> "Tracer":
        for module_name, attr, stem, kind in HOOKS:
            module = self._modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            make = self._span if kind == "span" else self._count
            setattr(module, attr, make(stem, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
