import os
import subprocess
import sys

import svkit


def test_import_does_not_load_scipy():
    # A fresh interpreter, so modules imported by other tests do not count.
    src = os.path.dirname(os.path.dirname(os.path.abspath(svkit.__file__)))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import svkit; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    missing = [name for name in svkit.__all__ if not hasattr(svkit, name)]
    assert missing == []
