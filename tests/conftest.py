"""Shared test hooks.

The acceptance tests print one ``ACCEPTANCE nn ...`` line each, which
pytest captures when they pass; the terminal summary lists every such line
of the run, so the margins show in CI and local runs alike.
"""


def pytest_terminal_summary(terminalreporter):
    lines = sorted(
        line
        for reports in terminalreporter.stats.values()
        for report in reports
        if getattr(report, "when", None) == "call"
        for line in report.capstdout.splitlines()
        if line.startswith("ACCEPTANCE ")
    )
    if lines:
        terminalreporter.section("ACCEPTANCE lines")
        for line in lines:
            terminalreporter.write_line(line)
