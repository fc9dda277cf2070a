"""Check that two source trees print and write the same bytes.

Usage: python tests/revisions.py BASE_TREE HEAD_TREE

Every demo is meant to print the same bytes at both trees: each demo of the
head tree runs from both trees (a demo new in the head is skipped) and what
it prints to stdout is diffed.

Every command is meant to keep its output bytes too: one synth -> preprocess
-> features -> train -> evaluate -> transfer -> report -> validate chain
(``CHAIN``) runs from each tree, one interpreter per command. The script
fails on any non-zero exit, any difference in what the chain prints to
stdout or stderr, any file written on one side only, and any difference in
a file's content. Reports, known by their ``make_report`` envelope, are
compared without their top-level timestamp; every other file byte for byte.
Each side runs in its own directory with relative paths, so the input paths
that reports and provenance embed match. For each JSON file that differs,
the key paths that differ are printed as ``path base -> head``.

``CHAIN`` is the one description of the CLI chain: the ``workspace`` fixture
of ``tests/test_cli.py`` runs the same lines in process through
``cli.main``, and both it and this script check each chain directory with
``chain_problems``.

What the chain covers:
- A component is excluded because that exclusion is what keeps FastICA in
  the comparison: with none excluded and every component kept, preprocess
  only checks the recording as FastICA would and keeps it.
- Two budgets and three seeds write both t-test families of the transfer
  report. Heads and scratch baselines draw from separate random streams, so
  the transfer without baselines must write the runs of the full one
  without their ``scratch_accuracy``.
- The training settings come from a ``--config`` file, and one ``--set``
  overrides a key the file sets.
- The first transfer and the report run twice, so the second runs write over
  files that exist; they must leave the same bytes and no ``.partial``
  temporary behind.
- LSTM and BiGRU models are trained with CV and checkpoints and evaluated
  too, so all four scans are compared. A BiLSTM checkpoint is trained too
  and its head re-drawn (``reinit_head``) in a transfer without baselines,
  and a second synth writes epoch files.

To compare a change with its parent:

    git worktree add --detach ../base HEAD~1
    python tests/revisions.py ../base .
"""

import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SPEC = "n_classes = 5\ntrials_per_class = 8\nn_channels = 4\nsample_rate_hz = 250\n" \
       "epoch_seconds = 0.4\n"
TRAIN_CFG = "hidden_units = 6,4\ndropout_rates = 0.2,0.1\nmax_epochs = 3\nbatch_size = 4\n"
CFG = "--set sample_rate_hz=250 --set epoch_seconds=0.4 --set bandpass_high_hz=60 " \
      "--set ica_exclude=0"
TRAIN = f"{CFG} --config ../train.cfg --set batch_size=8"
TRANSFER = "transfer --source gru.rmdl --covert covert.ften --budgets 0.2,0.3 --seeds 3 " \
           f"--seed 3 {TRAIN} --set fine_tune_max_epochs=2"
REPORT = "report --train-report train.json --transfer-report transfer.json " \
         "--overt-features overt.ften --covert-features covert.ften --out-dir tables"
CHAIN = [
    "synth --spec ../subject.kv --out data --seed 3",
    "synth --spec ../subject.kv --out epoch_data --seed 3 --emit epochs",
    *(line for c in ("overt", "covert") for line in (
        f"preprocess --input data/synthetic_{c}.eegr --out {c}.epoc --condition {c} --seed 3 {CFG}",
        f"features --input {c}.epoc --out {c}.ften {CFG}")),
    *(line for kind, tag in (("gru", ""), ("lstm", "_lstm"), ("bigru", "_bigru")) for line in (
        f"train --features overt.ften --model {kind} --cv 2 --seed 3 --out train{tag}.json "
        f"--checkpoint {kind}.rmdl {TRAIN}",
        f"evaluate --model {kind}.rmdl --features covert.ften --out evaluate{tag}.json {TRAIN}")),
    f"{TRANSFER} --out transfer.json",
    f"{TRANSFER} --out transfer_heads.json --no-scratch",
    "train --features overt.ften --model bilstm --cv 0 --seed 3 --out train_bilstm.json "
    f"--checkpoint bilstm.rmdl {TRAIN}",
    "transfer --source bilstm.rmdl --covert covert.ften --budgets 0.2,0.3 --seeds 2 --seed 3 "
    f"--out transfer_reinit.json --no-scratch {TRAIN} --set fine_tune_max_epochs=2 "
    "--set reinit_head=1",
    REPORT,
    f"{TRANSFER} --out transfer.json",
    REPORT,
    "validate data/synthetic_overt.eegr overt.epoc overt.ften gru.rmdl "
    "data/synthetic_manifest.json bilstm.rmdl epoch_data/synthetic_manifest.json "
    "lstm.rmdl bigru.rmdl",
]
ABSENT = object()


def run(tree, argv, cwd):
    """What ``argv`` prints to stdout and stderr when run in ``cwd`` with
    ``tree``'s package on the path; exits if it fails."""
    done = subprocess.run(argv, cwd=cwd, env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{done.stdout}{done.stderr}{cwd}: {' '.join(argv)} exited {done.returncode}")
    return done.stdout, done.stderr


def run_chain(tree, workdir):
    """Run ``CHAIN`` from ``tree`` in the new directory ``workdir``; what it
    printed to stdout and to stderr."""
    workdir.mkdir()
    printed = [run(tree, [sys.executable, "-m", "covert_decode.cli", *line.split()], workdir)
               for line in CHAIN]
    problems = chain_problems(workdir)
    if problems:
        sys.exit("\n".join(problems))
    return ["".join(stream) for stream in zip(*printed)]


def chain_problems(workdir):
    """What is wrong with one directory ``CHAIN`` has run in: the transfer
    without baselines must write the runs of the full one without their
    ``scratch_accuracy``, and no ``.partial`` temporary may be left."""
    full, heads = (json.loads((workdir / name).read_bytes())["runs"]
                   for name in ("transfer.json", "transfer_heads.json"))
    problems = [f"{path}: left behind" for path in sorted(workdir.rglob("*.partial"))]
    if [{k: v for k, v in entry.items() if k != "scratch_accuracy"} for entry in full] != heads:
        problems.append(f"{workdir}: transfer runs differ without scratch baselines")
    return problems


def content(path):
    """What is compared of a file, as (JSON value, bytes): for a report, known
    by its ``make_report`` envelope, the value without its timestamp and no
    bytes; for any other file, the value (ABSENT if it holds no JSON) and every
    byte; ABSENT and None where there is no file."""
    if not path.is_file():
        return ABSENT, None
    raw = path.read_bytes()
    try:
        value = json.loads(raw)
    except ValueError:
        return ABSENT, raw
    if isinstance(value, dict) and {"schema", "kind", "timestamp", "config"} <= value.keys():
        return {key: item for key, item in value.items() if key != "timestamp"}, None
    return value, raw


def key_paths(old, new, at=()):
    """``path base -> head`` for each key path where two JSON values differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        return [line for key in sorted(old.keys() | new.keys())
                for line in key_paths(old.get(key, ABSENT), new.get(key, ABSENT), (*at, key))]
    show = lambda value: "<absent>" if value is ABSENT else json.dumps(value)  # noqa: E731
    return [] if old == new else [f"{'.'.join(at)} {show(old)} -> {show(new)}"]


def trees_match(*roots):
    """Compare the files of two chain directories, base then head, and print
    what differs; True if both hold the same files with the same content. A
    ``.partial`` temporary fails the comparison even where both sides left it
    behind."""
    names = sorted({str(p.relative_to(r)) for r in roots for p in r.rglob("*") if p.is_file()})
    sides = {name: [content(root / name) for root in roots] for name in names}
    differ = [name for name, (old, new) in sides.items() if old != new or name.endswith(".partial")]
    for name in differ:
        print(f"{name}: {'left behind' if name.endswith('.partial') else 'differs'}",
              *(f"{name}: {line}" for line in key_paths(*(v for v, _ in sides[name]))), sep="\n")
    print(f"{len(names) - len(differ)} of {len(names)} files match")
    return not differ


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: python tests/revisions.py BASE_TREE HEAD_TREE")
    base, head = (Path(tree).resolve() for tree in argv)
    demos = [str(demo.relative_to(head)) for demo in sorted((head / "demos").glob("0*.py"))]
    texts = [(demo, *(run(tree, [sys.executable, demo], tree)[0] for tree in (base, head)))
             for demo in demos if (base / demo).is_file()]  # a demo new in the head is skipped
    same = all(old == new for _, old, new in texts)
    print(f"{len(texts)} demos print the {'same' if same else 'different'} bytes")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        (out / "subject.kv").write_text(SPEC)
        (out / "train.cfg").write_text(TRAIN_CFG)
        streams = [run_chain(tree, out / side) for side, tree in (("base", base), ("head", head))]
        texts += zip(("stdout", "stderr"), *streams)
        files_match = trees_match(out / "base", out / "head")
    for name, old, new in texts:
        sys.stdout.writelines(difflib.unified_diff(
            old.splitlines(True), new.splitlines(True), f"base/{name}", f"head/{name}"))
    return 0 if files_match and all(old == new for _, old, new in texts) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
