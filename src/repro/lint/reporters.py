"""Finding reporters: human text, machine JSON, and SARIF 2.1.0."""

from __future__ import annotations

import json
from typing import IO

from repro.lint.engine import Finding, all_rules


def report_text(findings: list[Finding], stream: IO[str]) -> None:
    """One ``path:line:col: CODE message`` line per finding plus a summary."""
    for finding in findings:
        stream.write(finding.render() + "\n")
    if findings:
        by_code: dict[str, int] = {}
        for finding in findings:
            by_code[finding.code] = by_code.get(finding.code, 0) + 1
        breakdown = ", ".join(f"{code}×{count}" for code, count in sorted(by_code.items()))
        stream.write(f"zuglint: {len(findings)} finding(s) ({breakdown})\n")
    else:
        stream.write("zuglint: clean\n")


def report_json(findings: list[Finding], stream: IO[str]) -> None:
    """Stable JSON document for tooling (CI annotations)."""
    payload = {
        "tool": "zuglint",
        "findings": [
            {
                "code": finding.code,
                "message": finding.message,
                "path": finding.path,
                "line": finding.line,
                "col": finding.col,
                "fingerprint": finding.fingerprint,
            }
            for finding in findings
        ],
        "count": len(findings),
    }
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"


def report_sarif(findings: list[Finding], stream: IO[str]) -> None:
    """SARIF 2.1.0 document for code-scanning upload (GitHub et al.).

    Every result carries ``partialFingerprints["zuglint/fingerprint"]`` —
    the finding's anchor-based fingerprint — so consumers dedupe findings
    across line-shifting edits.
    """
    rules_meta = [
        {
            "id": rule.code,
            "name": rule.name,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in all_rules()
    ]
    results = [
        {
            "ruleId": finding.code,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
            "partialFingerprints": {"zuglint/fingerprint": finding.fingerprint},
        }
        for finding in findings
    ]
    document = {
        "$schema": SARIF_SCHEMA_URI,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "zuglint",
                        "rules": rules_meta,
                    }
                },
                "columnKind": "utf16CodeUnits",
                "results": results,
            }
        ],
    }
    json.dump(document, stream, indent=2, sort_keys=True)
    stream.write("\n")


def describe_rules(stream: IO[str]) -> None:
    for rule in all_rules():
        stream.write(f"{rule.code}  {rule.name}\n    {rule.description}\n")


REPORTERS = {"text": report_text, "json": report_json, "sarif": report_sarif}
