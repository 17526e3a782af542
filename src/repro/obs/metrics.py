"""Zero-dependency metrics: counters, gauges, exact-quantile histograms.

The registry is the *numeric* half of the telemetry plane
(:mod:`repro.obs`): every instrument is a named, optionally labelled
object living in one :class:`MetricsRegistry`, and the registry renders
the whole set as a Prometheus text-exposition snapshot
(:meth:`MetricsRegistry.render_prometheus`).

Design constraints, in order:

* **Deterministic** — instruments hold exact values (no sampling, no
  decay); a :class:`Histogram` keeps every observation so its
  percentiles are *exact* and reproduce numpy's linear interpolation
  bit-for-bit.  Under the injectable clocks the codebase threads
  everywhere, two identical runs produce identical snapshots.
* **Cheap** — one dict hit to fetch an instrument, one float add to
  record.  The serving hot path holds instrument references directly,
  so steady-state cost is the float add alone.
* **Dependency-free** — stdlib only; the registry must be importable
  from every layer (``common.faults`` included) without cycles.

Instrument names are dotted (``serve.completed``); labels are keyword
pairs (``pool.respawns{worker=1}``).  The Prometheus renderer maps dots
to underscores — the wire format is for scrapers, the dotted names for
code and docs (catalog in ``docs/observability.md``).
"""

from __future__ import annotations

import functools
from array import array

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus",
]

#: Fixed latency buckets (milliseconds) spanning sub-tick arithmetic to
#: multi-second stalls; the ``+Inf`` bucket is implicit.
DEFAULT_LATENCY_BUCKETS_MS = (
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


class Counter:
    """A monotonically increasing value (float increments allowed)."""

    __slots__ = ("name", "labels", "help", "_value")

    kind = "counter"

    def __init__(self, name: str, labels: tuple = (), help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        self._value += amount

    def __repr__(self) -> str:
        return f"Counter({_key_repr(self.name, self.labels)}={self._value:g})"


class Gauge:
    """A value that can move both ways; tracks its running maximum."""

    __slots__ = ("name", "labels", "help", "_value", "_max")

    kind = "gauge"

    def __init__(self, name: str, labels: tuple = (), help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self._value = 0.0
        self._max = 0.0

    @property
    def value(self) -> float:
        return self._value

    @property
    def max(self) -> float:
        return self._max

    def set(self, value: float) -> None:
        self._value = float(value)
        if self._value > self._max:
            self._max = self._value

    def set_max(self, value: float) -> None:
        """Keep the running maximum only (``max_tick_batch``-style)."""
        self.set(max(self._value, float(value)))

    def __repr__(self) -> str:
        return f"Gauge({_key_repr(self.name, self.labels)}={self._value:g})"


class Histogram:
    """Fixed-bucket histogram that also retains raw samples.

    The buckets serve the Prometheus exposition (cumulative ``le``
    counts); the retained samples serve exact quantiles —
    :meth:`percentile` reproduces ``numpy.percentile``'s default linear
    interpolation bit for bit, so report numbers computed here agree with
    the numpy-based ones elsewhere in the repo.  Samples are packed C
    doubles (``array('d')``, 8 B each, against ~33 B for a list of Python
    floats): a server records one queue-wait sample per chunk.
    """

    __slots__ = ("name", "labels", "help", "buckets", "bucket_counts",
                 "_samples", "_sum")

    kind = "histogram"

    def __init__(self, name: str, labels: tuple = (), help: str = "",
                 buckets: tuple = DEFAULT_LATENCY_BUCKETS_MS):
        self.name = name
        self.labels = labels
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # + the Inf bucket
        self._samples = array("d")
        self._sum = 0.0

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def samples(self) -> tuple:
        return tuple(self._samples)

    def observe(self, value: float) -> None:
        value = float(value)
        self._samples.append(value)
        self._sum += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def percentile(self, p: float, start: int = 0) -> float | None:
        """Exact ``p``-th percentile of samples ``start:`` (numpy linear
        interpolation), or ``None`` when that window is empty.

        ``start`` lets a caller measure one run's window on a shared
        instrument: snapshot ``count`` before the run, percentile over
        the samples added since.
        """
        window = sorted(self._samples[start:])
        if not window:
            return None
        if len(window) == 1:
            return window[0]
        rank = (p / 100.0) * (len(window) - 1)
        lower = int(rank)
        if lower + 1 >= len(window):
            return window[-1]
        frac = rank - lower
        low, high = window[lower], window[lower + 1]
        # numpy's lerp interpolates from the nearer neighbour.
        if frac >= 0.5:
            return high - (high - low) * (1 - frac)
        return low + (high - low) * frac

    def __repr__(self) -> str:
        return (f"Histogram({_key_repr(self.name, self.labels)}: "
                f"n={self.count}, sum={self._sum:g})")


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), labels[k]) for k in labels))


def _key_repr(name: str, labels: tuple) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """All instruments of one component (or one shared telemetry plane).

    Instruments are keyed by ``(name, sorted labels)`` and created on
    first access; asking for an existing name with a different
    instrument kind raises — a registry is a typed namespace, not a
    bag.
    """

    def __init__(self):
        self._instruments: dict = {}
        self._kinds: dict[str, str] = {}
        self._helps: dict[str, str] = {}

    def _get(self, kind: str, name: str, labels: dict, help: str,
             **kwargs):
        known = self._kinds.get(name)
        if known is not None and known != kind:
            raise ValueError(
                f"metric {name!r} is already registered as a {known}, "
                f"cannot re-register it as a {kind}")
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = _KINDS[kind](name, labels=key[1], help=help,
                                      **kwargs)
            self._instruments[key] = instrument
            self._kinds[name] = kind
            if help:
                self._helps[name] = help
        return instrument

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get("counter", name, labels, help)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get("gauge", name, labels, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple = DEFAULT_LATENCY_BUCKETS_MS,
                  **labels) -> Histogram:
        return self._get("histogram", name, labels, help, buckets=buckets)

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Current value of a counter/gauge, ``default`` if absent."""
        instrument = self._instruments.get((name, _label_key(labels)))
        return default if instrument is None else instrument.value

    def instruments(self) -> list:
        """Every instrument, sorted by (name, labels) — the export order."""
        return [self._instruments[key]
                for key in sorted(self._instruments)]

    def labelled(self, name: str) -> list:
        """Every instrument registered under ``name`` (one per label set)."""
        return [inst for (n, _), inst in sorted(self._instruments.items())
                if n == name]

    def snapshot(self) -> dict:
        """Flat ``{rendered-key: value}`` view (histograms -> count/sum)."""
        out: dict = {}
        for instrument in self.instruments():
            key = _key_repr(instrument.name, instrument.labels)
            if instrument.kind == "histogram":
                out[key + ".count"] = instrument.count
                out[key + ".sum"] = instrument.sum
            else:
                out[key] = instrument.value
        return out

    # -- Prometheus text exposition ------------------------------------------
    def render_prometheus(self) -> str:
        """The registry as Prometheus text-exposition format (0.0.4)."""
        lines: list[str] = []
        seen_header: set[str] = set()
        for instrument in self.instruments():
            name = _prom_name(instrument.name)
            if instrument.name not in seen_header:
                seen_header.add(instrument.name)
                help_text = self._helps.get(instrument.name, "")
                if help_text:
                    lines.append(f"# HELP {name} {help_text}")
                lines.append(f"# TYPE {name} {instrument.kind}")
            if instrument.kind == "histogram":
                cumulative = 0
                for bound, count in zip(instrument.buckets,
                                        instrument.bucket_counts):
                    cumulative += count
                    labels = instrument.labels + (("le", _prom_num(bound)),)
                    lines.append(f"{name}_bucket{_prom_labels(labels)} "
                                 f"{cumulative}")
                labels = instrument.labels + (("le", "+Inf"),)
                lines.append(f"{name}_bucket{_prom_labels(labels)} "
                             f"{instrument.count}")
                lines.append(f"{name}_sum{_prom_labels(instrument.labels)} "
                             f"{_prom_num(instrument.sum)}")
                lines.append(f"{name}_count{_prom_labels(instrument.labels)} "
                             f"{instrument.count}")
            else:
                lines.append(f"{name}{_prom_labels(instrument.labels)} "
                             f"{_prom_num(instrument.value)}")
        return "\n".join(lines) + ("\n" if lines else "")


@functools.lru_cache(maxsize=1024)
def _prom_name(name: str) -> str:
    cleaned = "".join(ch if ch.isalnum() or ch in "_:" else "_"
                      for ch in name)
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return "repro_" + cleaned


def _prom_num(value: float) -> str:
    # Integral floats render as ints: `5` not `5.0` (both are legal
    # exposition, but ints diff cleaner and round-trip exactly).
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def _prom_labels(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


def parse_prometheus(text: str) -> dict:
    """Parse a text-exposition snapshot back to ``{key: float}``.

    The validator half of the exporter contract (``tools/obs_smoke.py``
    and the unit tests round-trip every snapshot through it): raises
    ``ValueError`` on any line that is neither a comment nor a
    ``name{labels} value`` sample.
    """
    samples: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            key, value_text = line.rsplit(None, 1)
            value = float(value_text)
        except ValueError as exc:
            raise ValueError(
                f"prometheus line {lineno} is not 'name value': "
                f"{line!r}") from exc
        name = key.split("{", 1)[0]
        if not name or not all(ch.isalnum() or ch in "_:" for ch in name):
            raise ValueError(
                f"prometheus line {lineno} has an invalid metric name: "
                f"{line!r}")
        if key in samples:
            raise ValueError(
                f"prometheus line {lineno} repeats sample {key!r}")
        samples[key] = value
    return samples
