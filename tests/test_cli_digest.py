"""The CLI's output on ``cli_digest``'s invocation set hashes to a pinned sha256.

``tests/cli_digest.py`` runs ``cli.main`` on 1 158 invocations (the
``expr_cli`` benchmark items of seeds 1-20, then every subcommand in every
output format at 64, 256 and 4096 bits, and a few usage errors) and hashes
each one's argv, exit code, stdout and stderr.  A change that must not move
one output byte keeps this digest.  A change that moves output on purpose
changes the pin only through the re-baseline procedure in ``ROADMAP.md``:
``python tests/cli_digest.py --each``, diffed between the parent and the
change, names the invocations whose output moved, and ``CHANGES.md`` lists
them next to the new pin.
"""

import hashlib

import cli_digest

PINNED = (1158, "343889ee6cad59a54953e1506a0e0a3c8ec8d3228173e8f6084de9db595a1c1b")


def test_cli_output_hashes_to_the_pinned_digest():
    digest = hashlib.sha256()
    runs = cli_digest.invocations()
    for argv in runs:
        digest.update(cli_digest.record(argv))
    assert (len(runs), digest.hexdigest()) == PINNED
