"""Number formatting and JSON conversion shared by the CLI and search records.

17 significant digits round-trip doubles losslessly, keeping emitted tables
diff-stable across runs.  JSON documents write a complex number as the pair
``[re, im]``.
"""

import numpy as np


def fmt_float(x) -> str:
    return format(float(x), ".17g")


def fmt_complex(z) -> str:
    z = complex(z)
    return f"{fmt_float(z.real)}{format(z.imag, '+.17g')}j"


def to_jsonable(value):
    """Plain JSON value: containers recursed, complex to [re, im], numpy scalars unboxed."""
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        return [z.real, z.imag]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value
