"""Continuation-token lifecycles at the HTTP boundary.

The satellite's contract: each way a token can go wrong maps to its
own HTTP status with a typed JSON error body —

- corrupt (truncated, bit-flipped, not a token)      -> 400
- stale (valid token, different session/snapshot)    -> 409
- per-request ``deadline_ms`` blown                  -> 408

and the happy path is the full 206 loop driven by raw HTTP, no client
library involved.
"""

from repro.api.database import Database
from repro.serve import ReproServer, ServeConfig
from repro.workloads import LUBM_QUERIES


def _suspend(server, http, name="L0"):
    """Submit an L-query to a single-step server, return its token."""
    status, body = http(
        server.url + "/query",
        {"query": LUBM_QUERIES[name], "mode": "pruned"},
    )
    assert status == 206
    return body["continuation"]


class TestResumeLoop:
    def test_raw_http_resume_loop_completes(
        self, lubm_server, small_lubm, http
    ):
        """Drive the 206 loop by hand; the stitched result equals a
        local uninterrupted run."""
        query = LUBM_QUERIES["L0"]
        status, body = http(
            lubm_server.url + "/query",
            {"query": query, "mode": "pruned"},
        )
        hops = 0
        while status == 206:
            hops += 1
            assert hops < 100_000
            status, body = http(
                lubm_server.url + "/query",
                {"continuation": body["continuation"]},
            )
        assert status == 200
        assert body["complete"] is True
        assert hops >= 3, "quantum too generous to exercise preemption"

        expected = Database.in_memory(small_lubm).query(
            query, mode="pruned"
        )
        got = {
            tuple(sorted(row.items())) for row in body["rows"]
        }
        assert got == expected.as_set()

    def test_token_is_single_use(self, lubm_server, http):
        """Resuming consumes the suspension; replaying the same token
        after the query advanced is a stale-token 409."""
        token = _suspend(lubm_server, http)
        status, body = http(
            lubm_server.url + "/query", {"continuation": token}
        )
        assert status in (200, 206)
        replay_status, replay_body = http(
            lubm_server.url + "/query", {"continuation": token}
        )
        # a token encodes one exact solver state; replaying it is
        # legal (tokens are values, not server-side sessions) and
        # must yield the same next state, not an error
        assert replay_status == status


class TestCorruptToken:
    def test_garbage_token_400(self, lubm_server, http):
        status, body = http(
            lubm_server.url + "/query",
            {"continuation": "not-a-token"},
        )
        assert status == 400
        assert body["error"]["code"] == "corrupt_token"
        assert body["error"]["message"]

    def test_truncated_token_400(self, lubm_server, http):
        token = _suspend(lubm_server, http)
        status, body = http(
            lubm_server.url + "/query",
            {"continuation": token[: len(token) // 2]},
        )
        assert status == 400
        assert body["error"]["code"] == "corrupt_token"

    def test_bit_flipped_token_400(self, lubm_server, http):
        token = _suspend(lubm_server, http)
        middle = len(token) // 2
        flipped = (
            token[:middle]
            + ("A" if token[middle] != "A" else "B")
            + token[middle + 1:]
        )
        status, body = http(
            lubm_server.url + "/query", {"continuation": flipped}
        )
        assert status == 400
        assert body["error"]["code"] == "corrupt_token"


class TestStaleToken:
    def test_token_from_another_snapshot_409(
        self, lubm_server, movie_db, http
    ):
        """A structurally valid token minted against a different
        database fails the fingerprint check: 409, not 400."""
        other = Database.in_memory(movie_db)
        other.profile = other.profile.replace(time_quantum_ms=0.0)
        suspended = other.query(
            "SELECT * WHERE { ?director directed ?movie . "
            "?director worked_with ?coworker . }",
            mode="pruned",
        )
        assert not suspended.complete
        status, body = http(
            lubm_server.url + "/query",
            {"continuation": suspended.continuation},
        )
        assert status == 409
        assert body["error"]["code"] == "stale_token"


class TestDeadline:
    def test_request_deadline_exceeded_408(self, small_lubm, http):
        """A per-request deadline_ms of ~0 dies mid-flight with 408,
        while the same query without one still completes."""
        db = Database.in_memory(small_lubm)
        server = ReproServer(db, ServeConfig(port=0, quantum_ms=10_000.0))
        server.start()
        try:
            status, body = http(
                server.url + "/query",
                {
                    "query": LUBM_QUERIES["L0"],
                    "mode": "pruned",
                    "deadline_ms": 0.0001,
                },
            )
            assert status == 408
            assert body["error"]["code"] == "deadline_exceeded"

            status, body = http(
                server.url + "/query",
                {"query": LUBM_QUERIES["L0"], "mode": "pruned"},
            )
            assert status == 200
        finally:
            server.stop()

    def test_negative_deadline_is_bad_request(self, lubm_server, http):
        status, body = http(
            lubm_server.url + "/query",
            {"query": LUBM_QUERIES["L0"], "deadline_ms": -5},
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"
