"""The README's examples, run against the package."""

from __future__ import annotations

import argparse
import re
from pathlib import Path

from conftest import complete_graph
from oneplanar.cli import _add_config_flags, run_pipeline
from oneplanar.embedding import serialize_embedding
from oneplanar.search import SearchConfig

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def first_block_after(heading: str, lang: str = "") -> str:
    """The body of the first fenced block of language `lang` after `heading`."""
    rest = README[README.index(f"\n{heading}\n"):]
    return re.search(rf"^```{lang}\n(.*?)^```$", rest, re.S | re.M).group(1)


def test_library_example_runs(capsys):
    code = first_block_after("## Library", "python")
    exec(compile(code, "README.md", "exec"), {})
    # the comment after print() shows what it prints
    shown = re.search(r"^print\(.*\)\s+# (.*)$", code, re.M).group(1)
    assert capsys.readouterr().out == shown + "\n"


def test_certificate_format_example_matches_k5():
    shown = [line for line in first_block_after("### Certificate format").splitlines()
             if line != "..."]
    _, emb = run_pipeline(complete_graph(5), SearchConfig())
    lines = iter(serialize_embedding(emb).splitlines())
    # every line shown appears, in the order shown
    assert all(any(line == got for got in lines) for line in shown)


def test_shared_flags_paragraph_names_every_config_flag():
    # the flags the paragraph names are exactly those check and bench share
    parser = argparse.ArgumentParser(add_help=False)
    _add_config_flags(parser)
    defined = {flag for action in parser._actions for flag in action.option_strings}
    paragraph = README[README.index("\nShared flags:"):].split("\n\n")[0]
    assert set(re.findall(r"`(--[a-z-]+)", paragraph)) == defined
