"""The byte-identity gate's tables: tools/artifact_diff.py, loaded by path.

Its commands run in order in one directory, so each must find the files
it names there: an input file, or one an earlier command wrote.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "artifact_diff.py"
_spec = importlib.util.spec_from_file_location("artifact_diff", TOOL)
artifact_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_diff)

# The rows that name a missing file on purpose.
MISSING = {"absent.ini", "absent.csv"}


def out_dir(argv):
    return argv[argv.index("--out") + 1]


def test_every_named_file_is_an_input_or_under_an_earlier_out():
    inputs = set(artifact_diff.input_files()) | set(artifact_diff.DECORATED)
    assert not inputs & MISSING
    written = set()
    for argv in artifact_diff.commands():
        for word in argv:
            if word.endswith((".ini", ".csv")):
                assert word in inputs | MISSING or word.split("/")[0] in written, argv
        written.add(out_dir(argv))


def test_no_two_commands_share_an_out():
    outs = [out_dir(argv) for argv in artifact_diff.commands()]
    assert len(set(outs)) == len(outs)


def test_commands_are_the_same_on_every_call():
    assert artifact_diff.commands() == artifact_diff.commands()


def test_rows_that_share_a_file_give_it_one_text():
    # Every row's files go into the one run directory.
    texts = {}
    for case in artifact_diff.CASES:
        for name, text in case.files.items():
            assert texts.setdefault(name, text) == text, (case.id, name)
