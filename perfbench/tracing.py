"""Spans around the package's public functions, recorded from outside.

The tracer replaces each target function at every module binding that
refers to it, so a call made through a name imported into another module
(``estimation.count_pmf``, ``error_prevention.classical_fi``, ...) is
recorded as well.  Spans stay in memory as (name, start, end, parent) and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

# Functions wrapped in the traced run, per package module.
TARGETS = {
    "cli": ("main", "write_table"),
    "multiparticle": (
        "count_pmf",
        "count_distribution",
        "fisher_information",
        "super_rabi_means",
        "interaction_channel_kraus",
    ),
    "fockspace": (
        "classical_fi",
        "apply_channel",
        "measure",
        "coherent_state",
        "detection_loss_channel",
        "number_povm",
    ),
    "dipolar": ("excluded_volume_integral", "readout_expectation_mc"),
    "estimation": ("run_estimation", "sensitivity_from_model"),
    "error_prevention": ("enhancement_curve", "fi_with_prevention", "expectation_curves"),
}

ITEM_SPAN = "bench.item"


class Tracer:
    """Records nested spans for the wrapped functions of a package."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list[list] = []  # [name index, start, end, parent span index]
        self.pmf_outcomes = 0  # summed length of the pmfs count_pmf returns
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _name_index(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        record = [self._name_index(name), 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        if name == "multiparticle.count_pmf":

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                result = self.span(name, fn, *args, **kwargs)
                self.pmf_outcomes += len(result)
                return result

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self, package: str) -> None:
        """Wrap every target at every binding in the package's modules."""
        modules = {m: importlib.import_module(f"{package}.{m}") for m in TARGETS}
        bindings = [importlib.import_module(package), *modules.values()]
        for module_name, functions in TARGETS.items():
            for fn_name in functions:
                original = getattr(modules[module_name], fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", original)
                for module in bindings:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, self seconds) per span name; self time excludes child spans."""
        if not self.spans:
            return {}
        table = np.array(self.spans, dtype=float)
        names = table[:, 0].astype(int)
        duration = table[:, 2] - table[:, 1]
        parent = table[:, 3].astype(int)
        covered = np.zeros(len(table))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], duration[has_parent])
        own = duration - covered
        out = {}
        for index, name in enumerate(self.names):
            mask = names == index
            out[name] = (int(mask.sum()), float(own[mask].sum()))
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent"],
                    "names": self.names,
                    "spans": self.spans,
                    "count_pmf_outcomes": self.pmf_outcomes,
                },
                fh,
            )
            fh.write("\n")
