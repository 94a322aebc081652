import numpy as np
import pytest

import fanweave as fw


@pytest.fixture(scope="session")
def weyl():
    """Cached Weyl basis builder, keyed by dimension."""
    cache: dict[int, fw.UnitaryBasis] = {}

    def get(d: int) -> fw.UnitaryBasis:
        if d not in cache:
            cache[d] = fw.build_weyl(d)
        return cache[d]

    return get


@pytest.fixture(scope="session")
def pauli2():
    return fw.build_pauli2()


@pytest.fixture(scope="session")
def s3_basis():
    """Shift-and-multiply basis over S3 (group multiplication square, Fourier family)."""
    lam = fw.latin_from_group(fw.group_s3(), "e")
    return fw.build_shift_multiply(lam, fw.fourier_family(6), params={"group": "s3", "variant": "e"})


@pytest.fixture(scope="session")
def z3f_basis():
    """Right-subtraction latin square over Z_3 with the Fourier matrix."""
    lam = fw.latin_from_group(fw.group_cyclic(3), "f")
    return fw.build_shift_multiply(lam, fw.fourier_family(3), params={"group": "z3", "variant": "f"})


@pytest.fixture(scope="session")
def s3xz2_basis():
    """Shift-and-multiply basis over S3 x Z2 (d=12): its tag fans are the largest in the tests."""
    group = fw.group_product(fw.group_s3(), fw.group_cyclic(2))
    lam = fw.latin_from_group(group, "e")
    return fw.build_shift_multiply(lam, fw.fourier_family(12), params={"group": "s3xz2", "variant": "e"})
