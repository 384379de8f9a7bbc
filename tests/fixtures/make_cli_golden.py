"""Regenerate the golden output digests used by test_cli.py and criterion 8.

Run from the repository root:

    PYTHONPATH=src python3 tests/fixtures/make_cli_golden.py

Each case of ``helpers.CLI_GOLDEN_CASES`` runs on the two-poem corpus of
``test_cli.py``, and ``report --seed 7`` runs on the criterion-8 corpus.  The
sha256 of every output file, ``run.json`` included, is written to
``cli_golden.json``.  The digests pin the output trees byte for byte, so
regenerate them only when an output is meant to change, and name the changed
files in the change description.
"""

import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).parent
sys.path.insert(0, str(HERE.parent))

from helpers import (  # noqa: E402
    CLI_GOLDEN_CASES,
    CRITERION_8_ARGV,
    GOLDEN_PATH,
    build_corpus,
    run_digests,
)
from test_acceptance import criterion_8_corpus  # noqa: E402
from test_cli import _cli_poems  # noqa: E402
from versemetry.corpus import write_corpus  # noqa: E402


def main():
    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        cli_corpus = tmp / "cli-corpus"
        write_corpus(build_corpus(*_cli_poems()), cli_corpus)
        for name, argv in CLI_GOLDEN_CASES.items():
            golden[name] = run_digests(argv, cli_corpus, tmp / name)
        criterion_8 = tmp / "criterion-8-corpus"
        write_corpus(criterion_8_corpus(), criterion_8)
        golden["criterion-8"] = run_digests(CRITERION_8_ARGV, criterion_8,
                                            tmp / "criterion-8")
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases, "
          f"{sum(len(files) for files in golden.values())} files")


if __name__ == "__main__":
    main()
