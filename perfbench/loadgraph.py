"""Load graphs named as the CLI's ``--graph`` names them.

Run as a script, this is the set-up the benchmark times for ``setup_s``: a
fresh interpreter imports arcwalk and loads each graph given on the command
line, with no walk.
"""

import sys

import arcwalk


def load(source: str) -> arcwalk.Graph:
    """``builtin:NAME`` or ``edgelist:PATH``, read the way the CLI reads them."""
    kind, _, rest = source.partition(":")
    if kind == "builtin":
        return arcwalk.builtin(rest)
    with open(rest, encoding="utf-8") as handle:
        return arcwalk.load_edge_list(handle.read())


if __name__ == "__main__":
    for name in sys.argv[1:]:
        load(name)
