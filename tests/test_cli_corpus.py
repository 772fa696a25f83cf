"""Every CLI output matches its block in ``tests/data/cli_corpus.txt``.

After an intended output change, rewrite the file with
``PYTHONPATH=src python tests/cli_corpus.py --write`` and review its diff.
"""

import cli_corpus


def test_cli_output_matches_the_corpus():
    diff = cli_corpus.check()
    assert not diff, "\n".join(diff)
