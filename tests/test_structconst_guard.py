"""Printed structure-constant tables stay byte for byte the same.

For every k <= 6 the test runs `hopfscf structconst --k k --K K` for every
subset K of [k-1], in the aligned-table form and with `--csv`, and hashes the
concatenated output; a third digest covers `--filter-m k//2` (table form)
over the same K.  The digests were recorded with the per-(m, I, J) route that
called `nsym.structure_constant` once per row, so any change to the rows, to
their order or to a printed coefficient shows up here.

Print the current table with `python tests/test_structconst_guard.py`.
"""

import contextlib
import hashlib
import io

import pytest

from hopfscf import cli
from hopfscf.compositions import SubsetLabel

MAX_K = 6
FORMATS = ("table", "csv", "filter-m")


def structconst_digest(k: int, fmt: str) -> str:
    h = hashlib.sha256()
    for kmask in range(1 << max(k - 1, 0)):
        K = "{" + ",".join(map(str, SubsetLabel(k, kmask).members)) + "}"
        argv = ["structconst", "--k", str(k), "--K", K]
        if fmt == "csv":
            argv.append("--csv")
        elif fmt == "filter-m":
            argv += ["--filter-m", str(k // 2)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, argv
        h.update(out.getvalue().encode())
    return h.hexdigest()


DIGESTS = {
    (0, 'table'): 'a6c03f8844e72e4f457d63034322f1481ba4b3134143b553d61f3b5330a6055f',
    (0, 'csv'): '830013bad4f3a348167b4695352e2a8f84722524df2e436e907af74becd524aa',
    (0, 'filter-m'): 'a6c03f8844e72e4f457d63034322f1481ba4b3134143b553d61f3b5330a6055f',
    (1, 'table'): '86c35dac065ede0ba67c20ad4aaecd45f4b7d44fde2486be31beb634d531e4c6',
    (1, 'csv'): '14507b61b954f08dedaec35aaee7ce346b7ff89b81fe405fd4b0529df0ac3a31',
    (1, 'filter-m'): '8d87cdf1613e3d7cde208000d98f13616a554bc56ce7345957cbec2c7eb0e943',
    (2, 'table'): '078aa63208fea8205d1bb22ecb27c8e987fae846c3d29d8ce1c57e4822561334',
    (2, 'csv'): 'facbaf1cef582b7a59233f90ae14a410ba596f7c93392ee5680361b83ea1bfed',
    (2, 'filter-m'): '765dc88b3b5aa8fb43dd51e768c8504fa90cb518e28a01445896b9c247c6d4ba',
    (3, 'table'): '14968a1ce9397b42d762f7a9347f1e8e938040f6f975ddcf0fe0c7311ebed001',
    (3, 'csv'): '1251d702494c052f0c5d5652638a77c1ce934e5f9772794e5a1d2555c897f7ad',
    (3, 'filter-m'): 'eb35ea289511ea3c1a1e108d4af78c884b2857ccc0138054265617034059f505',
    (4, 'table'): 'c0dfc21667e21b982a6771443c7778caa81ac96c767adad3d11716b9ccaaee32',
    (4, 'csv'): '749c7d4ab8e1317a865dfc443abe1c6f10f8f340376826c39cb8918796c64f0d',
    (4, 'filter-m'): '0e91bdccb4578ab8e3fb5fa735b7f052ea08b78e4bac30731fde44d47f953b5d',
    (5, 'table'): '18b75813aee0b0308f76d2da1db8beeeabe416c9b0e9efa0611a8cdf1712055c',
    (5, 'csv'): 'ef645a2e4ff84e16f7b25b9b5e002dcd0145da66a55e9a59df93740237ba27d8',
    (5, 'filter-m'): '14f3d5e5ed76b0e9960dfba0924e7e16d439ba354595e6d487f0011f219fc54e',
    (6, 'table'): '569524615af1270b9b75c5ce3400187ed992c0e2389ffdd0cdccef071afae9d2',
    (6, 'csv'): 'f2224808be2427cd4bb3aab8f8bfa88e6858eb99b7e5cfd57cdf0e4ccd704c6a',
    (6, 'filter-m'): 'ebe7b9ac0110e41d7a62bbd7528fce5c3c8596c58cfbeb7510eddf3730f47a4e',
}


def test_every_case_is_recorded():
    assert set(DIGESTS) == {(k, fmt) for k in range(MAX_K + 1) for fmt in FORMATS}


@pytest.mark.parametrize("k,fmt", sorted(DIGESTS))
def test_printed_tables_unchanged(k, fmt):
    assert structconst_digest(k, fmt) == DIGESTS[(k, fmt)]


if __name__ == "__main__":
    for k in range(MAX_K + 1):
        for fmt in FORMATS:
            print(f"    {(k, fmt)!r}: {structconst_digest(k, fmt)!r},")
