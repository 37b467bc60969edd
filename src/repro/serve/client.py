"""Remote sessions: the :class:`GraphBackend` half of ``repro serve``.

:class:`RemoteBackend` speaks the ``repro-serve/v1`` wire protocol
(stdlib ``urllib`` only) and plugs into
:class:`~repro.api.database.Database` via
:meth:`~repro.api.database.Database.connect`, so the same
``query()/ask()`` code runs unchanged against a server::

    db = Database.connect("http://127.0.0.1:8080")
    rows = db.query(LUBM_QUERIES["L3"], mode="pruned").rows()

**The transparent resume loop**: the server preempts every query at
its time quantum and answers HTTP 206 with a continuation token.
:meth:`RemoteBackend.remote_query` re-submits the token until the
answer completes, counting hops in
``client_resubmissions_total`` — so a caller sees exactly one
complete :class:`RemoteResultSet`, byte-identical to local execution,
no matter how many round-robin slices the server cut the query into.

Server-side failures come back as the same typed exceptions a local
session raises: a stale token is
:class:`~repro.errors.ContinuationError` with ``reason="stale"``, a
blown deadline :class:`~repro.errors.DeadlineExceededError`, a bad
query :class:`~repro.errors.QueryError`.  Transport and protocol
failures raise :class:`~repro.serve.protocol.ProtocolError`.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, Hashable, Iterator, List, Optional, Set, Tuple

from repro.api.result import PruneSummary
from repro.errors import (
    ContinuationError,
    DeadlineExceededError,
    QueryError,
    ReproError,
    UnsupportedOperationError,
)
from repro.obs.metrics import registry
from repro.serve.protocol import (
    WIRE_PROTOCOL,
    ProtocolError,
    decode_pruning,
    decode_rows,
)

__all__ = ["RemoteBackend", "RemoteResultSet"]

#: Wire error code -> the exception a local session would raise.
_CODE_ERRORS = {
    "stale_token": lambda msg: ContinuationError(msg, reason="stale"),
    "corrupt_token": lambda msg: ContinuationError(msg, reason="corrupt"),
    "deadline_exceeded": DeadlineExceededError,
    "invalid_query": QueryError,
    "unsupported_operation": UnsupportedOperationError,
}

#: Safety valve on the transparent resume loop: a server cutting one
#: query into this many slices means a quantum of ~0 against a huge
#: graph — fail loudly rather than hammer it forever.
MAX_RESUME_HOPS = 100_000


class RemoteResultSet:
    """A complete, fully-decoded result received over the wire.

    Mirrors the read surface of :class:`~repro.api.result.ResultSet`
    (iteration, ``rows()``, ``first()``, ``as_set()``, ``variables``,
    ``mode``/``advised``/``pruning``/``complete``) so calling code is
    storage-agnostic.  ``resubmissions`` records how many 206
    continuations the client loop stitched through — the suspension
    count of this query, observable per call.
    """

    def __init__(
        self,
        rows: List[Dict[str, Hashable]],
        variables: Tuple[str, ...],
        mode: str,
        advised: bool,
        pruning: Optional[PruneSummary],
        resubmissions: int = 0,
    ):
        self._rows = rows
        self.variables = variables
        self.mode = mode
        self.advised = advised
        self.pruning = pruning
        self.complete = True
        self.continuation = None
        self.resubmissions = resubmissions
        self.trace = None

    @classmethod
    def from_doc(cls, doc: Dict, resubmissions: int = 0) -> "RemoteResultSet":
        try:
            return cls(
                rows=decode_rows(doc["rows"]),
                variables=tuple(doc["variables"]),
                mode=doc["mode"],
                advised=bool(doc["advised"]),
                pruning=decode_pruning(doc.get("pruning")),
                resubmissions=resubmissions,
            )
        except (KeyError, TypeError) as error:
            raise ProtocolError(
                f"malformed query response on the wire: {error}"
            ) from None

    def __iter__(self) -> Iterator[Dict[str, Hashable]]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def rows(self) -> List[Dict[str, Hashable]]:
        return list(self._rows)

    def first(self) -> Optional[Dict[str, Hashable]]:
        return self._rows[0] if self._rows else None

    def as_set(self) -> Set[Tuple[Tuple[str, Hashable], ...]]:
        """Same canonical form as a local ``ResultSet.as_set()`` —
        equality across the wire *is* the byte-identity check."""
        return {
            tuple(sorted(row.items(), key=lambda kv: kv[0]))
            for row in self._rows
        }

    def __repr__(self) -> str:
        return (
            f"RemoteResultSet({len(self._rows)} solutions, "
            f"mode={self.mode!r}, resubmissions={self.resubmissions})"
        )


class RemoteBackend:
    """:class:`GraphBackend` over a ``repro serve`` endpoint.

    Graph identity (``n_nodes``/``n_triples``/``labels``) is read
    once from ``GET /info`` at connect time.  Adjacency stays on the
    server: :meth:`triple_store`, :attr:`graph`, and :meth:`triples`
    raise — the engine runs server-side, which is the point.
    """

    kind = "remote"

    def __init__(self, url: str, timeout: float = 30.0):
        self.url = url.rstrip("/")
        self.timeout = timeout
        self._info = self._get("/info")
        protocol = self._info.get("protocol")
        if protocol != WIRE_PROTOCOL:
            raise ProtocolError(
                f"server at {self.url} speaks {protocol!r}, "
                f"expected {WIRE_PROTOCOL!r}"
            )

    def capabilities(self):
        from repro.api.backend import BackendCapabilities

        return BackendCapabilities(remote=True)

    # -- transport ---------------------------------------------------------

    def _request(
        self, path: str, payload: Optional[Dict] = None
    ) -> Tuple[int, Dict]:
        url = self.url + path
        data = (
            None if payload is None
            else json.dumps(payload).encode("utf-8")
        )
        request = urllib.request.Request(
            url, data=data,
            headers=(
                {} if data is None
                else {"Content-Type": "application/json"}
            ),
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            body = error.read()
            try:
                doc = json.loads(body)
            except json.JSONDecodeError:
                raise ProtocolError(
                    f"{url} answered HTTP {error.code} with a "
                    "non-JSON body"
                ) from None
            raise self._typed_error(error.code, doc) from None
        except urllib.error.URLError as error:
            raise ProtocolError(
                f"cannot reach {url}: {error.reason}"
            ) from None
        except json.JSONDecodeError as error:
            raise ProtocolError(
                f"{url} answered with a non-JSON body: {error}"
            ) from None

    @staticmethod
    def _typed_error(status: int, doc: Dict) -> ReproError:
        """Map a wire error body back to the local exception type."""
        error = doc.get("error")
        if not isinstance(error, dict) or "code" not in error:
            return ProtocolError(
                f"HTTP {status} without a typed error body"
            )
        code = error["code"]
        message = error.get("message", code)
        factory = _CODE_ERRORS.get(code)
        if factory is not None:
            return factory(message)
        return ProtocolError(f"server error [{code}]: {message}")

    def _get(self, path: str) -> Dict:
        status, doc = self._request(path)
        return doc

    # -- remote execution (consumed by Database) ---------------------------

    def remote_query(
        self, query: str, mode: Optional[str] = None
    ) -> RemoteResultSet:
        """Evaluate to completion, resuming through every 206."""
        payload: Dict = {"query": query}
        if mode is not None:
            payload["mode"] = mode
        return self._run_to_completion(payload)

    def remote_resume(self, token: str) -> RemoteResultSet:
        """Resume a continuation to completion (the token may come
        from this session or any compatible one)."""
        return self._run_to_completion({"continuation": token})

    def remote_ask(self, query: str) -> bool:
        status, doc = self._request("/ask", {"query": query})
        try:
            return bool(doc["answer"])
        except (KeyError, TypeError):
            raise ProtocolError(
                "malformed ask response on the wire"
            ) from None

    def _run_to_completion(self, payload: Dict) -> RemoteResultSet:
        hops = 0
        while True:
            status, doc = self._request("/query", payload)
            if status == 200:
                return RemoteResultSet.from_doc(doc, resubmissions=hops)
            if status == 206:
                token = doc.get("continuation")
                if not isinstance(token, str):
                    raise ProtocolError(
                        "206 response without a continuation token"
                    )
                hops += 1
                if hops > MAX_RESUME_HOPS:
                    raise ProtocolError(
                        f"query did not complete within "
                        f"{MAX_RESUME_HOPS} continuation hops"
                    )
                registry().counter("client_resubmissions_total").inc()
                payload = {"continuation": token}
                continue
            raise ProtocolError(
                f"unexpected HTTP {status} from /query"
            )

    # -- GraphBackend surface ----------------------------------------------

    @property
    def graph(self):
        # None, not raise: runtime_checkable GraphBackend isinstance
        # checks probe this property via hasattr.  Local-only Database
        # operations (advise/simulate/explain) are gated before they
        # ever touch it.
        return None

    def triple_store(self):
        raise ReproError(
            "a remote session has no local triple store; the join "
            "engine runs server-side"
        )

    @property
    def n_nodes(self) -> int:
        return int(self._info["n_nodes"])

    @property
    def n_triples(self) -> int:
        return int(self._info["n_triples"])

    @property
    def labels(self) -> Set[str]:
        return set(self._info["labels"])

    def triples(self) -> Iterator:
        raise ReproError(
            "a remote session does not stream raw triples; query it, "
            "or open the snapshot locally"
        )

    def residency(self):
        return None  # residency is the server's concern

    def stats(self) -> Dict[str, object]:
        """Live server-side stats (one ``GET /info`` round trip)."""
        info = self._get("/info")
        stats = dict(info.get("stats", {}))
        stats["kind"] = self.kind
        stats["url"] = self.url
        stats["server_kind"] = info.get("kind")
        return stats

    def health(self) -> bool:
        """True while the server answers ``GET /health`` with 200."""
        try:
            status, _ = self._request("/health")
        except ReproError:
            return False
        return status == 200

    def metrics(self) -> Dict[str, object]:
        """The server's ``GET /metrics`` snapshot."""
        return self._get("/metrics")

    def close(self) -> None:
        return None  # connections are per-request; nothing persists

    def __repr__(self) -> str:
        return f"RemoteBackend({self.url!r})"
