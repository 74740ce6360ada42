"""The package's public names."""

from __future__ import annotations

import oneplanar


def test_every_public_name_resolves_once():
    names = oneplanar.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(oneplanar, name)]
    assert missing == []
