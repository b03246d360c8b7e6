"""Columnar request streams and outcome ledgers for the fleet core.

A million-request fleet run cannot afford a million
:class:`~repro.serving.scheduler.ServeRequest` /
:class:`~repro.serving.scheduler.RequestOutcome` objects.  This module
holds the three columnar containers the fleet core runs on instead:

* :class:`RequestTable` — the request stream as numpy columns (arrival,
  prompt, output, priority, tenant, id).  Every seeded generator in
  :mod:`repro.fleet.arrivals` and every tenant population returns one;
  hand-built ``ServeRequest`` lists are columnarized with
  :meth:`RequestTable.from_requests`.
* :class:`OutcomeLog` — an append-only (id, first-token, finish,
  preemptions) ledger the fleet fills in finish order, replacing the
  per-request outcome dict.
* :class:`ColumnarOutcomes` — the report-facing view: a lazy
  ``Sequence[RequestOutcome]`` in request-id order whose raw columns
  feed the vectorized percentile/SLO math in
  :mod:`repro.fleet.report`.

Everything here is a container; the ``fleet.event_core_parity`` audit
checks pin that a run fed a table equals one fed the value-equal list.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence

import numpy as np

from ..serving.scheduler import RequestOutcome, ServeRequest


class RequestTable(Sequence):
    """A request stream stored as parallel numpy columns.

    Value-equal to a ``list[ServeRequest]`` (materialize any row with
    :meth:`request`) but holds five flat arrays instead of n objects —
    ~50 bytes/request instead of ~500, and O(1) column access for the
    event core's arrival drain and the report's percentile math.
    """

    __slots__ = ("request_id", "arrival_s", "prompt_tokens",
                 "output_tokens", "priority", "tenant_id", "_index")

    def __init__(self, request_id, arrival_s, prompt_tokens, output_tokens,
                 priority=None, tenant_id=None) -> None:
        self.request_id = np.asarray(request_id, dtype=np.int64)
        self.arrival_s = np.asarray(arrival_s, dtype=np.float64)
        self.prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
        self.output_tokens = np.asarray(output_tokens, dtype=np.int64)
        if priority is None:
            priority = np.zeros(len(self.request_id), dtype=np.int64)
        self.priority = np.asarray(priority, dtype=np.int64)
        if tenant_id is None:
            tenant_id = np.zeros(len(self.request_id), dtype=np.int64)
        self.tenant_id = np.asarray(tenant_id, dtype=np.int64)
        self._index: dict[int, int] | None = None
        n = len(self.request_id)
        for name in ("arrival_s", "prompt_tokens", "output_tokens",
                     "priority", "tenant_id"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"ragged request table: {name} has "
                                 f"{len(getattr(self, name))} rows, ids {n}")
        # The same guards ServeRequest.__post_init__ applies per object,
        # vectorized over the stream.
        if n and (not np.all(np.isfinite(self.arrival_s))
                  or np.any(self.arrival_s < 0)):
            raise ValueError("arrival_s must be finite and >= 0")
        if np.any(self.prompt_tokens < 1):
            raise ValueError("prompt_tokens must be finite and >= 1")
        if np.any(self.output_tokens < 1):
            raise ValueError("output_tokens must be finite and >= 1")
        if np.any(self.tenant_id < 0):
            raise ValueError("tenant_id must be >= 0")
        if n and len(np.unique(self.request_id)) != n:
            raise ValueError("request ids must be unique")

    def __len__(self) -> int:
        return len(self.request_id)

    def request(self, index: int) -> ServeRequest:
        """Materialize row ``index`` as a value-equal ServeRequest."""
        return ServeRequest(
            request_id=int(self.request_id[index]),
            arrival_s=float(self.arrival_s[index]),
            prompt_tokens=int(self.prompt_tokens[index]),
            output_tokens=int(self.output_tokens[index]),
            priority=int(self.priority[index]),
            tenant_id=int(self.tenant_id[index]))

    def __getitem__(self, index: int) -> ServeRequest:
        if isinstance(index, slice):
            raise TypeError("RequestTable does not support slicing")
        n = len(self.request_id)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("request table index out of range")
        return self.request(index)

    def index_of(self, request_id: int) -> int:
        """Row index of ``request_id`` (raises ``KeyError`` if absent)."""
        if self._index is None:
            self._index = {int(rid): row for row, rid
                           in enumerate(self.request_id)}
        return self._index[request_id]

    def arrival_order(self) -> np.ndarray:
        """Row indices sorted by (arrival_s, request_id).

        The order
        ``sorted(requests, key=lambda r: (r.arrival_s, r.request_id))``
        produces — lexsort's last key is primary.
        """
        return np.lexsort((self.request_id, self.arrival_s))

    @classmethod
    def from_requests(cls, requests: Sequence[ServeRequest],
                      ) -> "RequestTable":
        """Columnarize an object stream (value-preserving)."""
        return cls(
            request_id=[r.request_id for r in requests],
            arrival_s=[r.arrival_s for r in requests],
            prompt_tokens=[r.prompt_tokens for r in requests],
            output_tokens=[r.output_tokens for r in requests],
            priority=[r.priority for r in requests],
            tenant_id=[r.tenant_id for r in requests])

    # -- checkpoint/restore ---------------------------------------------------

    def to_state(self) -> dict:
        return {
            "request_id": self.request_id.tolist(),
            "arrival_s": self.arrival_s.tolist(),
            "prompt_tokens": self.prompt_tokens.tolist(),
            "output_tokens": self.output_tokens.tolist(),
            "priority": self.priority.tolist(),
            "tenant_id": self.tenant_id.tolist(),
        }

    @classmethod
    def from_state(cls, state: dict) -> "RequestTable":
        from ..state.errors import StateValueError
        from ..state.schema import require
        try:
            return cls(
                request_id=require(state, "request_id", list, "$.requests"),
                arrival_s=require(state, "arrival_s", list, "$.requests"),
                prompt_tokens=require(state, "prompt_tokens", list,
                                      "$.requests"),
                output_tokens=require(state, "output_tokens", list,
                                      "$.requests"),
                priority=require(state, "priority", list, "$.requests"),
                # Lenient: pre-tenancy snapshots have no tenant column.
                tenant_id=state.get("tenant_id"))
        except ValueError as error:
            raise StateValueError(f"$.requests: {error}") from error


class ColumnarOutcomes(Sequence):
    """Completed-request records as columns, in request-id order.

    The outcome sequence a :class:`~repro.fleet.report.FleetReport`
    carries: iteration and
    indexing materialize value-equal :class:`RequestOutcome` objects on
    demand, while the report's aggregate math reads the raw columns.
    """

    __slots__ = ("request_id", "arrival_s", "prompt_tokens", "output_tokens",
                 "priority", "tenant_id", "first_token_s", "finish_s",
                 "preemptions")

    def __init__(self, request_id, arrival_s, prompt_tokens, output_tokens,
                 priority, first_token_s, finish_s, preemptions,
                 tenant_id=None) -> None:
        self.request_id = np.asarray(request_id, dtype=np.int64)
        self.arrival_s = np.asarray(arrival_s, dtype=np.float64)
        self.prompt_tokens = np.asarray(prompt_tokens, dtype=np.int64)
        self.output_tokens = np.asarray(output_tokens, dtype=np.int64)
        self.priority = np.asarray(priority, dtype=np.int64)
        if tenant_id is None:
            tenant_id = np.zeros(len(self.request_id), dtype=np.int64)
        self.tenant_id = np.asarray(tenant_id, dtype=np.int64)
        self.first_token_s = np.asarray(first_token_s, dtype=np.float64)
        self.finish_s = np.asarray(finish_s, dtype=np.float64)
        self.preemptions = np.asarray(preemptions, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.request_id)

    def __getitem__(self, index: int) -> RequestOutcome:
        if isinstance(index, slice):
            raise TypeError("ColumnarOutcomes does not support slicing")
        n = len(self.request_id)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("outcome index out of range")
        return RequestOutcome(
            request=ServeRequest(
                request_id=int(self.request_id[index]),
                arrival_s=float(self.arrival_s[index]),
                prompt_tokens=int(self.prompt_tokens[index]),
                output_tokens=int(self.output_tokens[index]),
                priority=int(self.priority[index]),
                tenant_id=int(self.tenant_id[index])),
            first_token_s=float(self.first_token_s[index]),
            finish_s=float(self.finish_s[index]),
            preemptions=int(self.preemptions[index]))

    def ttft_values(self) -> np.ndarray:
        """Per-request TTFT column (first token - arrival)."""
        return self.first_token_s - self.arrival_s

    def e2e_values(self) -> np.ndarray:
        """Per-request end-to-end latency column (finish - arrival)."""
        return self.finish_s - self.arrival_s


class OutcomeLog:
    """Append-only finish ledger the fleet fills as requests end.

    One ``record`` per completed request, in completion order, kept as
    four flat arrays.  :meth:`to_outcomes` joins the ledger back against the
    request stream into the request-id-ordered view reports expect.
    """

    __slots__ = ("_ids", "_first", "_finish", "_preempt")

    def __init__(self) -> None:
        self._ids = array("q")
        self._first = array("d")
        self._finish = array("d")
        self._preempt = array("q")

    def __len__(self) -> int:
        return len(self._ids)

    def record(self, request_id: int, first_token_s: float, finish_s: float,
               preemptions: int) -> None:
        self._ids.append(request_id)
        self._first.append(first_token_s)
        self._finish.append(finish_s)
        self._preempt.append(preemptions)

    def max_finish_s(self) -> float | None:
        """Latest completion recorded, if any (the run's end time)."""
        if not self._finish:
            return None
        return float(np.max(np.frombuffer(self._finish, dtype=np.float64)))

    def to_outcomes(self, table: RequestTable) -> ColumnarOutcomes:
        """Join the ledger with its request stream, in request-id order."""
        ids = np.asarray(self._ids, dtype=np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        table_ids = table.request_id
        sorter = np.argsort(table_ids)
        location = np.searchsorted(table_ids, ids, sorter=sorter)
        if np.any(location >= len(table_ids)):
            raise ValueError("outcome ledger references requests outside "
                             "the stream")
        rows = sorter[location]
        if len(ids) and not np.array_equal(table_ids[rows], ids):
            raise ValueError("outcome ledger references requests outside "
                             "the stream")
        return ColumnarOutcomes(
            request_id=ids,
            arrival_s=table.arrival_s[rows],
            prompt_tokens=table.prompt_tokens[rows],
            output_tokens=table.output_tokens[rows],
            priority=table.priority[rows],
            tenant_id=table.tenant_id[rows],
            first_token_s=np.asarray(self._first, dtype=np.float64)[order],
            finish_s=np.asarray(self._finish, dtype=np.float64)[order],
            preemptions=np.asarray(self._preempt, dtype=np.int64)[order])

    # -- checkpoint/restore ---------------------------------------------------

    def to_state(self) -> dict:
        return {
            "request_id": list(self._ids),
            "first_token_s": list(self._first),
            "finish_s": list(self._finish),
            "preemptions": list(self._preempt),
        }

    @classmethod
    def from_state(cls, state: dict) -> "OutcomeLog":
        from ..state.errors import StateIntegrityError
        from ..state.schema import require
        log = cls()
        ids = require(state, "request_id", list, "$.finished")
        first = require(state, "first_token_s", list, "$.finished")
        finish = require(state, "finish_s", list, "$.finished")
        preempt = require(state, "preemptions", list, "$.finished")
        if not len(ids) == len(first) == len(finish) == len(preempt):
            raise StateIntegrityError("ragged outcome ledger snapshot")
        log._ids = array("q", (int(v) for v in ids))
        log._first = array("d", (float(v) for v in first))
        log._finish = array("d", (float(v) for v in finish))
        log._preempt = array("q", (int(v) for v in preempt))
        return log
