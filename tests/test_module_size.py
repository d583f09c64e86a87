"""Every module of the package stays below 4096 parser tokens.

Past about 4096 tokens CPython's parser doubles a token buffer, and the
module's compile peak rises by 0.24 MiB. Without cached bytecode every
process compiles the package, so crossing it raised ``symbol_sweep``
``peak_rss_mb`` by 0.12 MB, more than the benchmark's 0.1 MB bound. A
module that grows near the limit is split instead.
"""

import io
import tokenize
from pathlib import Path

import pytest

import smlink

SOURCE = Path(smlink.__file__).parent
TOKEN_LIMIT = 4096


def parser_tokens(text):
    """Tokens of a module's source, comments and non-logical newlines left out."""
    return sum(tok.type not in (tokenize.COMMENT, tokenize.NL)
               for tok in tokenize.generate_tokens(io.StringIO(text).readline))


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_module_below_token_limit(path):
    assert parser_tokens(path.read_text()) < TOKEN_LIMIT
