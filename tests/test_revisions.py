"""The revision comparison's file check and chain, without running the chain."""

import argparse
import json

import pytest

from covert_decode import cli
from covert_decode.experiments import make_report

from revisions import CHAIN, chain_problems, trees_match


@pytest.fixture
def sides(tmp_path):
    """Two empty chain directories, base and head."""
    base, head = tmp_path / "base", tmp_path / "head"
    base.mkdir()
    head.mkdir()
    return base, head


def write_report(path, payload, timestamp):
    report = make_report("train", {"seed": 3}, payload)
    report["timestamp"] = timestamp
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def test_report_differing_only_in_timestamp_matches(sides, capsys):
    for root, timestamp in zip(sides, ("2025-01-01T00:00:00+00:00", "2026-10-20T09:41:59+00:00")):
        write_report(root / "train.json", {"cv": {"mean_accuracy": 0.5}}, timestamp)
    assert trees_match(*sides)
    out = capsys.readouterr().out
    assert out == "1 of 1 files match\n"
    assert "timestamp" not in out


def test_changed_nested_key_prints_its_path(sides, capsys):
    for root, value in zip(sides, (1, 2)):
        (root / "m.json").write_text(json.dumps({"a": {"b": value, "c": [1]}, "d": "x"}))
    assert not trees_match(*sides)
    assert capsys.readouterr().out.splitlines() == [
        "m.json: differs", "m.json: a.b 1 -> 2", "0 of 1 files match"]


def test_file_on_one_side_fails(sides, capsys):
    for root in sides:
        (root / "kept.bin").write_bytes(b"\x00\x01")
    (sides[1] / "data").mkdir()
    (sides[1] / "data" / "extra.bin").write_bytes(b"\x02")
    assert not trees_match(*sides)
    out = capsys.readouterr().out
    assert "data/extra.bin: differs" in out
    assert out.endswith("1 of 2 files match\n")


def test_provenance_differing_only_in_whitespace_differs(sides, capsys):
    record = {"command": "features", "config": {"seed": 3}, "inputs": [], "output": "x.ften"}
    (sides[0] / "x.ften.prov.json").write_text(json.dumps(record, sort_keys=True, indent=2))
    (sides[1] / "x.ften.prov.json").write_text(json.dumps(record, sort_keys=True))
    assert not trees_match(*sides)
    assert capsys.readouterr().out.splitlines() == [
        "x.ften.prov.json: differs", "0 of 1 files match"]


def test_temporary_left_on_both_sides_fails(sides, capsys):
    for root in sides:
        (root / ".transfer.json.partial").write_bytes(b"{}")
    assert not trees_match(*sides)
    assert capsys.readouterr().out.splitlines() == [
        ".transfer.json.partial: left behind", "0 of 1 files match"]


def write_transfers(root, heads_accuracy):
    """A full transfer report with one run of transfer accuracy 0.5, and a
    heads-only one whose run has ``heads_accuracy``."""
    full = {"budget": 0.2, "seed": 3, "transfer_accuracy": 0.5, "scratch_accuracy": 0.25}
    heads = {"budget": 0.2, "seed": 3, "transfer_accuracy": heads_accuracy}
    for name, entry in (("transfer.json", full), ("transfer_heads.json", heads)):
        (root / name).write_text(json.dumps({"runs": [entry]}))


def test_heads_only_transfer_with_other_runs_is_a_problem(tmp_path):
    write_transfers(tmp_path, 0.75)
    assert chain_problems(tmp_path) == [
        f"{tmp_path}: transfer runs differ without scratch baselines"]


def test_temporary_left_in_one_chain_directory_is_a_problem(tmp_path):
    write_transfers(tmp_path, 0.5)
    (tmp_path / "tables").mkdir()
    (tmp_path / "tables" / ".accuracy_table.csv.partial").write_bytes(b"subject")
    assert chain_problems(tmp_path) == [
        f"{tmp_path / 'tables' / '.accuracy_table.csv.partial'}: left behind"]


def test_chain_runs_every_subcommand():
    (subcommands,) = [action.choices for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
    assert {line.split()[0] for line in CHAIN} == set(subcommands)
    assert len(CHAIN) == 20
