"""Counting zeros of diagonal quartic forms x_1^4 + ... + x_n^4 = c over F_{p^m}.

Modules:
    field     -- F_{p^m} arithmetic, generators, quartic classes by Euler's
                 criterion, discrete logs, traces; the addition and trace
                 tables and the additive convolution over them
    cyclotomy -- cyclotomic classes and numbers, the (s, t) decomposition
    counting  -- solution counts: oracle, closed forms, cyclotomic assembly
    genfunc   -- rational generating functions and their series expansion
    expsums   -- Gauss-type sums and floating-point reconstruction
    cli       -- command-line front end
"""

from .field import Field, find_generator, index_of, quartic_class, trace
from .cyclotomy import QuarticDecomposition, quartic_decomposition
from .counting import count_M, count_N, count_small, oracle_count
from .genfunc import gf_M, gf_N

__all__ = [
    "Field", "find_generator", "index_of", "quartic_class", "trace",
    "QuarticDecomposition", "quartic_decomposition",
    "count_M", "count_N", "count_small", "oracle_count",
    "gf_M", "gf_N",
]

__version__ = "0.1.0"
