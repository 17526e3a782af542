"""The single run-table artifact every benchmark row lands in.

One scenario-harness invocation (:mod:`repro.experiments.harness`)
appends one row per executed run to a :class:`RunTable` and writes it as
``run_table.csv`` — the muBench replication shape: a factor grid,
repetitions, and *one* table: the only record the harness writes, and
the one the docs quote rows of by ``run_id``.  A change is judged by
diffing the table, not fourteen scripts.

The column set is fixed (:data:`RUN_TABLE_COLUMNS`) and documented in
``docs/experiments.md``.  Identity columns (which grid cell a row is)
come first, measurement columns follow; cells that do not apply to a
row's kind are empty.  Rendering is deterministic: ``repr`` for floats
(round-trips exactly through :meth:`RunTable.read_csv`), no timestamps,
no environment capture — two runs of the same scenario with the same
seeds must produce byte-identical CSV text.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ExperimentError

__all__ = ["RUN_TABLE_COLUMNS", "RunTable"]

#: Identity (grid-cell) columns — every row fills all of these.
ID_COLUMNS = (
    "run_id",        # unique slug: scenario/engine-precision-...-rN
    "scenario",      # scenario name the row was expanded from
    "kind",          # forward | backward | train_step | inference |
                     # variation | serving | chaos
    "engine",        # fused | step
    "precision",     # float64 | float32
    "workers",       # worker-pool size (0 = serial)
    "hardware",      # ideal | hw<bits>b<var%> | shadow<bits>b<var%>
    "hw_bits",       # crossbar weight resolution (empty when ideal)
    "hw_variation",  # programming-variation sigma (empty when ideal)
    "workload",      # serving rows: synthetic | speech | dvs | glyph | a+b
    "load",          # serving rows: load-point id (light/heavy/...)
    "tenant",        # fleet rows: tenant id of a per-tenant SLO row
                     # (empty on the cell's fleet-wide aggregate row)
    "rate_rps",      # serving rows: offered Poisson rate
    "repetition",    # 0-based repetition index
    "seed",          # per-run derived seed (int)
)

#: Measurement columns — filled per row kind, empty otherwise.
MEASUREMENT_COLUMNS = (
    "rounds",          # timed kinds: measurement repetitions
    "requests",        # serving: chunks offered
    "completed",       # serving: chunks answered
    "rejected",        # serving: chunks refused by the bounded queue
    "ticks",           # serving: server ticks executed
    "duration_s",      # serving: virtual-clock run duration
    "throughput_rps",  # serving: completed / duration
    "mean_batch",      # serving: mean coalesced batch size
    "steps_per_s",     # serving: simulated time steps per second
    "min_ms",          # timed kinds: fastest call
    "mean_ms",         # timed kinds: mean call; serving: mean latency
    "max_ms",          # timed kinds: slowest call; serving: max latency
    "p50_ms",          # serving: median arrival-to-answer latency
    "p95_ms",          # serving: tail latency
    "p99_ms",          # serving: extreme-tail latency
    "accuracy",        # variation: mean accuracy over device seeds
    "accuracy_std",    # variation: std over device seeds
    "divergence",      # serving (shadow): mean ideal-vs-hardware diff
    "energy_j",        # modeled crossbar+neuron energy of the work done
    # Robustness columns (serving/chaos rows; clean runs fill the
    # zero/1.0 defaults so the schema stays uniform):
    "faults_injected",   # fault-plan firings observed during the run
    "requests_retried",  # chunks completed via the isolation retry path
    "requests_expired",  # chunks shed past their deadline (TTL)
    "requests_failed",   # chunks whose ticket resolved with an error
    "recovery_p99_ms",   # p99 latency of the retried chunks only
    "availability",      # completed / (completed+failed+expired)
    # Telemetry columns (serving/chaos rows; see docs/observability.md):
    "queue_wait_p95_ms",    # p95 submit-to-tick wait (virtual clock)
    "tick_compute_p95_ms",  # p95 measured per-tick compute
    # Fleet columns (fleet rows; see docs/fleet.md):
    "replicas",        # fleet aggregate: primary replica count
    "canary_weight",   # fleet aggregate: new-session canary fraction
    "quota_rejected",  # admission-control rejections (tenant rows: own;
                       # aggregate row: fleet-wide total)
    "canary_share",    # fleet aggregate: completed chunks served by the
                       # canary generation / all completed
    "misroutes",       # fleet aggregate: route-guard corrections
)

RUN_TABLE_COLUMNS = ID_COLUMNS + MEASUREMENT_COLUMNS


def _render_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):  # guard: bools are ints in python
        return str(int(value))
    if isinstance(value, float):
        # float() flattens numpy scalars (np.float64 is a float subclass
        # whose repr under numpy 2.x is 'np.float64(...)', which would
        # corrupt the cell); repr of a builtin float round-trips exactly.
        return repr(float(value))
    text = str(value)
    if any(ch in text for ch in ",\n\r\""):
        raise ExperimentError(
            f"run-table cell {text!r} contains a CSV delimiter; "
            "use plain slugs in identity columns")
    return text


#: Columns whose non-empty cells must parse as numbers — a cell that
#: comes back as a string here means the table is corrupted, and the
#: read must fail loudly instead of quietly emitting wrong JSON.
_NUMERIC_COLUMNS = frozenset(MEASUREMENT_COLUMNS) | {
    "workers", "hw_bits", "hw_variation", "rate_rps", "repetition", "seed",
}


def _parse_cell(text: str, column: str):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        if column in _NUMERIC_COLUMNS:
            raise ExperimentError(
                f"run-table cell {column}={text!r} must be numeric but "
                "does not parse as a number — the table is corrupted")
        return text


class RunTable:
    """An append-only table of run rows with a fixed column set."""

    columns = RUN_TABLE_COLUMNS

    def __init__(self, rows: list[dict] | None = None):
        self.rows: list[dict] = []
        for row in rows or []:
            self.append(**row)

    def __len__(self) -> int:
        return len(self.rows)

    def append(self, **row) -> dict:
        """Validate and append one row; returns the normalized row dict."""
        unknown = sorted(set(row) - set(self.columns))
        if unknown:
            raise ExperimentError(
                f"unknown run-table column(s) {unknown}; "
                f"the schema is fixed — see repro.common.runtable")
        run_id = row.get("run_id")
        if not run_id:
            raise ExperimentError("every run-table row needs a run_id")
        if any(existing["run_id"] == run_id for existing in self.rows):
            raise ExperimentError(f"duplicate run_id {run_id!r} in run table")
        normalized = {column: row.get(column) for column in self.columns}
        self.rows.append(normalized)
        return normalized

    def extend(self, rows) -> None:
        for row in rows:
            self.append(**row)

    def by_kind(self, kind: str) -> list[dict]:
        return [row for row in self.rows if row["kind"] == kind]

    # -- CSV -----------------------------------------------------------------
    def render_csv(self) -> str:
        """Deterministic CSV text (header + one line per row)."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_render_cell(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> Path:
        path = Path(path)
        path.write_text(self.render_csv(), encoding="utf-8")
        return path

    @classmethod
    def from_csv_text(cls, text: str) -> "RunTable":
        lines = [line for line in text.splitlines() if line]
        if not lines:
            raise ExperimentError("empty run table")
        header = tuple(lines[0].split(","))
        if header != cls.columns:
            raise ExperimentError(
                "run-table header does not match the fixed schema "
                f"(got {len(header)} columns, expected {len(cls.columns)}; "
                "was the file written by an older harness?)")
        table = cls()
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) != len(cls.columns):
                raise ExperimentError(
                    f"run-table row has {len(cells)} cells, expected "
                    f"{len(cls.columns)}: {line[:60]}...")
            table.append(**{
                column: _parse_cell(cell, column)
                for column, cell in zip(cls.columns, cells)
                if cell != ""
            })
        return table

    @classmethod
    def read_csv(cls, path) -> "RunTable":
        return cls.from_csv_text(Path(path).read_text(encoding="utf-8"))
