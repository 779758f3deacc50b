"""Docs honesty gate for the HTTP API: every route the server — and the
fleet router — implements must be documented in ``docs/api-reference.md``.

Two sources of truth are checked against the doc: the live routing
tables (``GET_ROUTES``/``POST_ROUTES`` of both ``serving/server.py`` and
``serving/router.py``), and a source scan of both modules and the HTTP
edge they share (``serving/edge.py``) for route-shaped string literals —
so a route added outside the tables cannot dodge the gate either.  The
serving guide and README links are covered too: a renamed doc file
breaks here, not in a user's browser.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.serving import router as router_module
from repro.serving.protocol import (
    BATCH_FIELDS,
    NODE_HEADER,
    RETRY_HEADER,
    RUN_FIELDS,
    TRACE_HEADER,
)
from repro.serving.server import GET_ROUTES, POST_ROUTES
from repro.serving.tracing import METRIC_NAMES, ROUTER_METRIC_NAMES

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
API_REFERENCE = REPO_ROOT / "docs" / "api-reference.md"
SERVING_GUIDE = REPO_ROOT / "docs" / "serving.md"
SERVER_SOURCE = REPO_ROOT / "src" / "repro" / "serving" / "server.py"
ROUTER_SOURCE = REPO_ROOT / "src" / "repro" / "serving" / "router.py"
EDGE_SOURCE = REPO_ROOT / "src" / "repro" / "serving" / "edge.py"

#: String literals in server.py/router.py/edge.py that look like routes.
ROUTE_LITERAL = re.compile(r'"(/(?:v\d+/)?[a-z_]+)"')


def test_api_reference_exists_and_is_substantial():
    text = API_REFERENCE.read_text()
    assert len(text) > 2000
    assert "curl" in text


def test_every_routed_endpoint_is_documented():
    text = API_REFERENCE.read_text()
    for route in list(GET_ROUTES) + list(POST_ROUTES):
        assert route in text, (
            f"route '{route}' is served but undocumented in "
            f"{API_REFERENCE.name}"
        )


def test_every_router_endpoint_is_documented():
    text = API_REFERENCE.read_text()
    for route in (list(router_module.GET_ROUTES)
                  + list(router_module.POST_ROUTES)):
        assert route in text, (
            f"router route '{route}' is served but undocumented in "
            f"{API_REFERENCE.name}"
        )


def test_every_route_literal_in_server_source_is_documented():
    text = API_REFERENCE.read_text()
    for source_path in (SERVER_SOURCE, ROUTER_SOURCE, EDGE_SOURCE):
        literals = set(ROUTE_LITERAL.findall(source_path.read_text()))
        assert literals  # the scan itself must keep finding the routes
        for literal in literals:
            assert literal in text, (
                f"{source_path.name} mentions route '{literal}' but "
                f"{API_REFERENCE.name} does not document it"
            )


def test_request_fields_are_documented():
    text = API_REFERENCE.read_text()
    for field in sorted(RUN_FIELDS | BATCH_FIELDS):
        assert f"`{field}`" in text, (
            f"wire field '{field}' is accepted but undocumented"
        )


def test_error_kinds_are_documented():
    text = API_REFERENCE.read_text()
    for kind in (
        "malformed_json", "bad_request", "unknown_machine",
        "unknown_backend", "unknown_executor", "unknown_route",
        "method_not_allowed", "unsupported_capability",
        "invalid_specification", "invalid_spec",
        "body_too_large", "length_required",
        "shutting_down", "internal_error", "overloaded",
        "deadline_exceeded", "worker_crash", "invalid_timeout",
        "no_healthy_node", "upstream_failed", "unknown_trace",
        "malformed_http",
    ):
        assert kind in text, f"error kind '{kind}' undocumented"


def test_fleet_headers_are_documented():
    """The router's attribution headers must appear in the API reference,
    spelled exactly as the wire constants say."""
    text = API_REFERENCE.read_text()
    for header in (NODE_HEADER, RETRY_HEADER, TRACE_HEADER):
        assert f"`{header}`" in text, f"header '{header}' undocumented"


#: ``repro_``-prefixed tokens in the API reference's metrics section;
#: histogram sample suffixes fold back onto their declared family.
METRIC_TOKEN = re.compile(r"\brepro_[a-z_]+\b")


def test_metric_names_match_the_docs_both_ways():
    """The /metrics honesty gate: every metric family the server or the
    router emits is documented, and every documented family exists — a
    renamed counter breaks here, not in someone's Grafana dashboard."""
    text = API_REFERENCE.read_text()
    declared = set(METRIC_NAMES) | set(ROUTER_METRIC_NAMES)
    documented = set()
    for token in METRIC_TOKEN.findall(text):
        for suffix in ("_bucket", "_sum", "_count"):
            if token.endswith(suffix) and token[: -len(suffix)] in declared:
                token = token[: -len(suffix)]
                break
        documented.add(token)
    missing = declared - documented
    assert not missing, f"metrics emitted but undocumented: {sorted(missing)}"
    phantom = documented - declared
    assert not phantom, f"metrics documented but never emitted: {sorted(phantom)}"


def test_tracing_endpoints_are_documented():
    text = API_REFERENCE.read_text()
    assert "/v1/trace" in text
    assert "/metrics" in text
    for term in ("trace_id", "spans", "worker_run", "text/plain"):
        assert term in text, f"tracing docs do not mention '{term}'"


def test_serving_guide_covers_the_fleet():
    text = SERVING_GUIDE.read_text()
    assert "Running a fleet" in text
    assert "repro fleet" in text
    for term in ("rendezvous", "drain", "bench"):
        assert term in text.lower(), (
            f"serving guide fleet section does not mention '{term}'"
        )


def test_serving_guide_exists_and_is_linked():
    assert SERVING_GUIDE.exists()
    readme = (REPO_ROOT / "README.md").read_text()
    architecture = (REPO_ROOT / "docs" / "architecture.md").read_text()
    for doc in ("docs/serving.md", "docs/api-reference.md",
                "docs/spec-format.md"):
        assert doc in readme, f"README does not link {doc}"
    for doc in ("serving.md", "api-reference.md", "spec-format.md"):
        assert doc in architecture, f"architecture.md does not link {doc}"


def test_spec_format_doc_matches_the_implementation():
    """docs/spec-format.md must track the interchange constants."""
    from repro.rtl.interchange import FORMAT_NAME, FORMAT_VERSION
    text = (REPO_ROOT / "docs" / "spec-format.md").read_text()
    assert f'"{FORMAT_NAME}"' in text
    assert f'`{FORMAT_VERSION}`' in text
    assert API_REFERENCE.read_text().count("spec-format.md") >= 2
