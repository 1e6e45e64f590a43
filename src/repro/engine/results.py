"""Simulation result containers.

A predictor simulation produces, for every static branch, how many
times it executed and how many of those executions were mispredicted.
:class:`SimulationResult` stores those per-PC columns and derives the
aggregate and per-branch miss rates every analysis in the paper is
built from.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from dataclasses import dataclass

import numpy as np

from ..errors import TraceError

__all__ = ["BranchResult", "SimulationResult"]


@dataclass(frozen=True, slots=True)
class BranchResult:
    """Prediction outcome summary for one static branch."""

    pc: int
    executions: int
    mispredictions: int

    def __post_init__(self) -> None:
        if self.executions < 0 or self.mispredictions < 0:
            raise TraceError("counts must be non-negative")
        if self.mispredictions > self.executions:
            raise TraceError(
                f"mispredictions {self.mispredictions} exceed executions {self.executions}"
            )

    @property
    def miss_rate(self) -> float:
        """Fraction of this branch's executions that were mispredicted."""
        if self.executions == 0:
            return 0.0
        return self.mispredictions / self.executions


class SimulationResult(Mapping[int, BranchResult]):
    """Per-branch misprediction counts for one predictor over one trace.

    Mapping interface: ``result[pc]`` yields a :class:`BranchResult`.
    Column interface: :attr:`pcs`, :attr:`executions`,
    :attr:`mispredictions` are aligned numpy arrays.
    """

    __slots__ = ("_pcs", "_executions", "_mispredictions", "_index", "predictor_name", "trace_name")

    def __init__(
        self,
        pcs,
        executions,
        mispredictions,
        *,
        predictor_name: str = "",
        trace_name: str = "",
    ) -> None:
        self._pcs = np.asarray(pcs, dtype=np.int64)
        self._executions = np.asarray(executions, dtype=np.int64)
        self._mispredictions = np.asarray(mispredictions, dtype=np.int64)
        if not (len(self._pcs) == len(self._executions) == len(self._mispredictions)):
            raise TraceError("result columns must have equal length")
        if np.any(self._mispredictions > self._executions):
            raise TraceError("mispredictions cannot exceed executions")
        if np.any(self._mispredictions < 0) or np.any(self._executions < 0):
            raise TraceError("counts must be non-negative")
        for arr in (self._pcs, self._executions, self._mispredictions):
            arr.setflags(write=False)
        # pc -> row, built on the first lookup: sweeps create many results
        # that are only ever read column-wise.
        self._index: dict[int, int] | None = None
        self.predictor_name = predictor_name
        self.trace_name = trace_name

    # -- mapping protocol ---------------------------------------------------

    def __getitem__(self, pc: int) -> BranchResult:
        if self._index is None:
            self._index = {int(p): i for i, p in enumerate(self._pcs)}
        i = self._index[pc]
        return BranchResult(
            pc=int(self._pcs[i]),
            executions=int(self._executions[i]),
            mispredictions=int(self._mispredictions[i]),
        )

    def __iter__(self) -> Iterator[int]:
        return (int(pc) for pc in self._pcs)

    def __len__(self) -> int:
        return len(self._pcs)

    # -- column access ---------------------------------------------------

    @property
    def pcs(self) -> np.ndarray:
        """Distinct static branch PCs (sorted)."""
        return self._pcs

    @property
    def executions(self) -> np.ndarray:
        """Executions per PC."""
        return self._executions

    @property
    def mispredictions(self) -> np.ndarray:
        """Mispredictions per PC."""
        return self._mispredictions

    # -- aggregates --------------------------------------------------------

    @property
    def total_executions(self) -> int:
        """Total dynamic branches simulated."""
        return int(self._executions.sum())

    @property
    def total_mispredictions(self) -> int:
        """Total mispredictions across all branches."""
        return int(self._mispredictions.sum())

    @property
    def miss_rate(self) -> float:
        """Overall miss rate (dynamic-weighted)."""
        total = self.total_executions
        if total == 0:
            return 0.0
        return self.total_mispredictions / total

    @property
    def accuracy(self) -> float:
        """Overall prediction accuracy (1 − miss rate)."""
        return 1.0 - self.miss_rate

    def miss_rates(self) -> np.ndarray:
        """Per-PC miss rate array aligned with :attr:`pcs`."""
        execs = np.maximum(self._executions, 1)
        return np.where(self._executions > 0, self._mispredictions / execs, 0.0)

    def misses_for(self, pcs) -> tuple[int, int]:
        """(executions, mispredictions) summed over a set of PCs."""
        wanted = np.asarray(sorted(set(int(p) for p in pcs)), dtype=np.int64)
        mask = np.isin(self._pcs, wanted)
        return int(self._executions[mask].sum()), int(self._mispredictions[mask].sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SimulationResult(predictor={self.predictor_name!r}, "
            f"trace={self.trace_name!r}, miss_rate={self.miss_rate:.4f})"
        )
