"""Shared fixtures: test fields, cached oracle histograms and literal checks."""

import itertools

import pytest

from diagquartic.counting import oracle_histograms
from diagquartic.cyclotomy import CyclotomicClasses, quartic_decomposition
from diagquartic.field import Field, find_generator

# q = 1 mod 4 and q = 3 mod 4 desk-scale test fields
FIELDS_1MOD4 = [(5, 1), (3, 2), (13, 1), (17, 1), (5, 2),
                (29, 1), (37, 1), (41, 1), (7, 2)]
FIELDS_3MOD4 = [(7, 1), (11, 1), (19, 1), (23, 1), (3, 3)]
ALL_FIELDS = FIELDS_1MOD4 + FIELDS_3MOD4

NMAX = 8


class FieldData:
    """A field with its generator, (s, t), classes and oracle histograms."""

    def __init__(self, p, m):
        self.field = Field(p, m)
        self.gen = find_generator(self.field)
        self.q = self.field.q
        if self.q % 4 == 1:
            self.dec = quartic_decomposition(self.field, self.gen)
            self.classes = CyclotomicClasses(self.field, self.gen, 4)
        else:
            self.dec = None
            self.classes = None
        # histograms[n-1][enc(c)] = N(x_1^4 + ... + x_n^4 = c)
        self.histograms = list(oracle_histograms(self.field, [self.field.one()] * NMAX, 4))

    def oracle_N(self, code, n):
        return self.histograms[n - 1][code]

    def oracle_M(self, y, n):
        return split_off_count(self.field, self.histograms, y, n)


def split_off_count(fld, histograms, y, n):
    """Zeros of x_1^4 + ... + x_{n-1}^4 + y x_n^4 = 0, by splitting off x_n.

    `histograms[k-1]` is the oracle histogram of x_1^4 + ... + x_k^4.  The
    count is the sum over x_n of N_{n-1}(-y x_n^4), with the x_n grouped by
    the value u = x_n^4.
    """
    neg_y = -y
    prefix = histograms[n - 2]
    return sum(cnt * prefix[(neg_y * fld.from_int(u)).encode()]
               for u, cnt in enumerate(histograms[0]) if cnt)


def literal_cyclo_dim(indices, k, fld, classes):
    """[i_1, ..., i_n]_k by literal enumeration of C_{i_1} x ... x C_{i_n}:
    f^n tuples of field elements, each summed and compared with 1."""
    one = fld.one()
    pools = [classes.classes[i % k] for i in indices]
    count = 0
    for combo in itertools.product(*pools):
        total = combo[0]
        for x in combo[1:]:
            total = total + x
        count += total == one
    return count


_CACHE: dict[tuple[int, int], FieldData] = {}


def field_data(p, m) -> FieldData:
    if (p, m) not in _CACHE:
        _CACHE[(p, m)] = FieldData(p, m)
    return _CACHE[(p, m)]


@pytest.fixture(params=ALL_FIELDS, ids=lambda pm: f"q={pm[0]**pm[1]}")
def any_field(request):
    return field_data(*request.param)


@pytest.fixture(params=FIELDS_1MOD4, ids=lambda pm: f"q={pm[0]**pm[1]}")
def field_1mod4(request):
    return field_data(*request.param)


@pytest.fixture(params=FIELDS_3MOD4, ids=lambda pm: f"q={pm[0]**pm[1]}")
def field_3mod4(request):
    return field_data(*request.param)
