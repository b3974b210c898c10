"""Names taken out of the library stay out: none of them is an attribute of
`opendyn` or of the module that defined it. Test-only copies of some live in
`tests/helpers.py`."""

import pytest

import opendyn
import opendyn.deterministic
import opendyn.finset
import opendyn.ode
import opendyn.stochastic

RETIRED = [
    ("compose_spans", opendyn.finset),
    ("identity_span", opendyn.finset),
    ("check_system_morphism", opendyn.deterministic),
    ("lens_matrix", opendyn.deterministic),
    ("dirac_steady_span", opendyn.stochastic),
    ("compose_ode_lenses", opendyn.ode),
    ("identity_ode_lens", opendyn.ode),
]


@pytest.mark.parametrize("name, module", RETIRED, ids=[name for name, _ in RETIRED])
def test_a_retired_name_is_gone(name, module):
    assert not hasattr(opendyn, name)
    assert not hasattr(module, name)
    with pytest.raises(ImportError):
        exec(f"from opendyn import {name}", {})
