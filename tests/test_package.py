import symvertex


def test_public_names_resolve():
    # a name deleted from a module but left in __all__ breaks
    # `from symvertex import *` only when someone runs it
    missing = [name for name in symvertex.__all__
               if not hasattr(symvertex, name)]
    assert not missing
    assert len(set(symvertex.__all__)) == len(symvertex.__all__)
