"""The JSON emitted by the CLI must validate against the shipped schemas."""

import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from stablyfree.cli import main

SCHEMAS = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "output-schemas.json")
    .read_text())


def cli_json(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(list(argv))
    assert code in (0, 1)
    return json.loads(out.getvalue())


def validate(payload, name):
    schema = dict(SCHEMAS["$defs"][name])
    schema["$defs"] = SCHEMAS["$defs"]
    jsonschema.validate(payload, schema)


def test_steenrod_payloads():
    validate(cli_json("steenrod", "-p", "3", "--group", "Sp:4", "--class", "a2",
                      "--op", "1", "--json"), "steenrod")
    validate(cli_json("steenrod", "-p", "2", "--poly", "c1*c2 + 3*c3",
                      "--op", "2", "--json"), "steenrod")


def test_tor_payloads():
    validate(cli_json("tor", "--family", "GL", "--n", "5", "--r", "2",
                      "--p", "3", "--json"), "tor_table")
    validate(cli_json("tor", "--family", "SO", "--n", "2", "--p", "5", "--json"),
             "tor_table")


def test_obstruct_payloads():
    validate(cli_json("obstruct", "gl", "--n", "3", "--a", "0", "--b", "2",
                      "-p", "2", "--json"), "obstruction_report")
    validate(cli_json("obstruct", "gl", "--n", "2", "--a", "0", "--b", "1",
                      "-p", "2", "--json"), "obstruction_report")
    validate(cli_json("obstruct", "sp", "--n", "2", "-p", "3", "--oracle",
                      "--json"), "obstruction_report")
    validate(cli_json("obstruct", "scan", "--q", "2", "-p", "2",
                      "--n-max", "12", "--json"), "divisibility_scan")


def test_verify_payloads():
    validate(cli_json("verify", "--axiom", "pth_power", "-p", "3",
                      "--bound", "9", "--json"), "axiom_report")


@pytest.mark.parametrize("axiom", ["adem", "cartan"])
def test_verify_failure_payloads(planted_seed, axiom):
    payload = cli_json("verify", "--axiom", axiom, "-p", "3", "--bound", "10",
                       "--json")
    assert payload["failures"]
    validate(payload, "axiom_report")
