"""One workload run: set-up, warm-up, interleaved timed rounds, checks.

The host's speed drifts over seconds, so the timed units of all methods
are interleaved round after round (with the order rotated each round)
for the whole run, and each metric is the median of its units.  A slow
phase then lands on a few samples of every metric instead of on all the
samples of one.
"""

from __future__ import annotations

import os
import resource
import statistics
import sys
import time
import tracemalloc
import traceback


from edgeprompt import data, pretrain, tuning

import checks

# metric suffix -> the program's method name
METHODS = {"edgeprompt": "edgeprompt", "edgeprompt-plus": "edgeprompt+",
           "gpf-plus": "gpf-plus"}
MB = 2 ** 20
CHECK_EPOCHS = 2  # long enough for the degeneracy check to follow an update


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Run:
    """Everything one process measures for one workload and seed."""

    def __init__(self, workload, seed: int, out_dir, tracer=None):
        self.w = workload
        self.seed = int(seed)
        self.out_dir = out_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}  # unit -> ms per epoch
        self.faults: dict[str, list[float]] = {}  # unit -> minor faults per epoch
        self.histories: dict[str, list[float]] = {}
        self.tuned: dict[str, tuning.PromptTuner] = {}
        self.rounds = 0

    # -- operations -----------------------------------------------------

    def attempt(self, fn):
        """Run one operation; an exception counts it as failed."""
        self.attempted += 1
        try:
            return fn()
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, name: str, fn) -> None:
        """Run one correctness check; any exception makes the run incorrect.

        A check that crashes (a missing fit, an incompatible artifact, an
        error inside the program it calls) has not shown the output right,
        so it counts as failed exactly like a wrong output does.
        """
        self.attempted += 1
        try:
            fn()
        except Exception as exc:
            self.failed += 1
            if not isinstance(exc, checks.CheckFailed):
                traceback.print_exc(file=sys.stderr)
            self.errors.append(f"{name}: {exc!r}")

    def setup(self, startup_s: float) -> None:
        """Write the inputs, then load them the way a user of the program would.

        ``setup_s`` is ``startup_s`` (process start to the program imported)
        plus ``load_dataset`` and ``kshot_sample``; writing the inputs is the
        benchmark's own work and is left out.
        """
        self.inputs = self.w.generate(self.seed)
        self.dataset_path = os.path.join(self.out_dir, f"{self.w.name}-seed{self.seed}.json")
        self.inputs.write(self.dataset_path)
        self.dataset_bytes = os.path.getsize(self.dataset_path)
        start = time.perf_counter()
        self.ds = data.load_dataset(self.dataset_path)
        self.split = data.kshot_sample(self.ds, self.w.shots, self.seed)
        self.setup_s = startup_s + time.perf_counter() - start

    def fit(self, method: str, epochs: int, **overrides):
        params = {**self.w.tune_kwargs, **overrides}
        tuner = tuning.PromptTuner(self.checkpoint, method=method, epochs=epochs,
                                   seed=self.seed, **params)
        return tuner.fit(self.ds, self.split)

    # -- timed units ----------------------------------------------------

    def _pretrain_unit(self):
        """One pre-training epoch, so ``pretrain_epoch_ms`` is the unit's time."""
        cls = pretrain.PRETRAINERS[self.w.pretrain_strategy]
        pre = cls(model_kind=self.w.model_kind, num_layers=2, hidden_dim=self.w.hidden,
                  epochs=1, seed=self.seed, **self.w.pretrain_kwargs).fit(self.ds)
        self.histories["pretrain"] = pre.history_
        return pre

    def _tune_unit(self, key: str):
        tuner = self.fit(METHODS[key], self.w.tune_epochs)
        self.tuned[key] = tuner
        self.histories[f"tune {key}"] = tuner.history_["loss"]
        return tuner

    def _predict_unit(self):
        self.predicted = self.tuned["edgeprompt-plus"].predict(self.ds, self.split.test_ids)
        return self.predicted

    def units(self):
        """(metric, operation, epochs per operation), in warm-up order."""
        out = [("pretrain_epoch_ms", self._pretrain_unit, 1)]
        for key in METHODS:
            out.append((f"tune_epoch_ms.{key}", lambda key=key: self._tune_unit(key),
                        self.w.tune_epochs))
        out.append(("predict_ms", self._predict_unit, 1))
        return out

    def _timed(self, metric: str, fn, epochs: int) -> None:
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        if self.tracer is None:
            result = self.attempt(fn)
        else:
            with self.tracer.unit(metric):
                result = self.attempt(fn)
        elapsed = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        if result is not None:
            self.samples.setdefault(metric, []).append(1e3 * elapsed / epochs)
            self.faults.setdefault(metric, []).append(faults / epochs)

    def warm_up(self) -> None:
        """One untimed pass of every unit; its pre-training gives the backbone."""
        units = self.units()
        pre = self.attempt(units[0][1])
        if pre is None:
            raise RuntimeError("warm-up pre-training failed; nothing to tune")
        self.checkpoint = pre.checkpoint_
        self.digest_before = self.checkpoint.digest()
        for _, fn, _ in units[1:]:
            self.attempt(fn)

    def measure(self, seconds: float) -> None:
        """Whole rounds of every unit until ``seconds`` have passed."""
        units = self.units()
        end = time.perf_counter() + seconds
        while self.rounds == 0 or time.perf_counter() < end:
            for k in range(len(units)):
                self._timed(*units[(k + self.rounds) % len(units)])
            self.rounds += 1
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB

    # -- correctness ----------------------------------------------------

    def run_checks(self) -> None:
        ds, ids = self.ds, self.split.test_ids
        preds = {"edgeprompt-plus": self.predicted}
        for key in ("edgeprompt", "gpf-plus"):
            preds[key] = self.attempt(lambda key=key: self.tuned[key].predict(ds, ids))
        for key in METHODS:
            self.check(f"reference {key}", lambda key=key: checks.check_reference(
                self.tuned[key], ds, self.inputs, ids, preds[key]))

        # Property fits run one batch per epoch, so a first-epoch loss is the
        # loss at the initial parameters.  Node tuning is always full-batch,
        # so there the timed fits' first epochs serve as well.
        batch = {"batch_size": int(self.split.train_ids.size)}
        epochs = CHECK_EPOCHS
        plans = [("classifier-only", "classifier-only", epochs, {}),
                 ("edgeprompt", "edgeprompt", epochs, {}),
                 ("edgeprompt+ one anchor", "edgeprompt+", epochs, {"anchors": 1})]
        fits = {}
        if self.ds.task == "node":
            fits.update({METHODS[k]: self.histories[f"tune {k}"]
                         for k in ("edgeprompt-plus", "gpf-plus")})
        else:
            plans += [("edgeprompt+", "edgeprompt+", 1, {}), ("gpf-plus", "gpf-plus", 1, {})]
        for name, method, n, extra in plans:
            tuner = self.attempt(lambda: self.fit(method, n, **batch, **extra))
            if tuner is not None:
                fits[name] = tuner.history_["loss"]
                self.histories[f"check fit {name}"] = fits[name]
        self.check("zero-initialised prompts", lambda: checks.check_zero_init(
            {k: v[0] for k, v in fits.items() if k != "classifier-only"},
            fits["classifier-only"][0]))
        self.check("single-anchor degeneracy", lambda: checks.check_degeneracy(
            fits["edgeprompt+ one anchor"], fits["edgeprompt"]))
        self.prompt_bytes = {}

        def round_trip(key):
            prefix = os.path.join(self.out_dir, f"{self.w.name}-seed{self.seed}-{key}")
            self.prompt_bytes[key] = checks.check_round_trip(
                self.tuned[key], ds, ids, preds[key], prefix)

        for key in METHODS:
            self.check(f"artifact round trip {key}", lambda key=key: round_trip(key))
        self.check("frozen backbone", lambda: checks.check_frozen(
            self.checkpoint, self.digest_before))
        self.check("finite losses", lambda: checks.check_finite(self.histories))

    # -- results --------------------------------------------------------

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        out = {"setup_s": (self.setup_s, "s")}
        for metric, _, _ in self.units():
            values = self.samples.get(metric)
            if values:
                out[metric] = (statistics.median(values), "ms")
        out["peak_rss_mb"] = (self.peak_rss_mb, "MB")
        return out

    def table(self) -> str:
        lines = [f"{'metric':32s} {'median':>10s} {'p25':>10s} {'p75':>10s} {'n':>4s}"]
        for metric, _, _ in self.units():
            values = self.samples.get(metric, [])
            if values:
                q1, q2, q3 = quartiles(values)
                lines.append(f"{metric:32s} {q2:10.2f} {q1:10.2f} {q3:10.2f} {len(values):4d}")
        return "\n".join(lines)

    def memory_epochs(self) -> dict[str, float]:
        """tracemalloc peak (MB) of one separate one-epoch fit per method."""
        peaks = {}
        for key, method in METHODS.items():
            tracemalloc.start()
            try:
                done = self.attempt(lambda method=method: self.fit(method, 1))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            if done is not None:
                peaks[key] = peak / MB
        return peaks
