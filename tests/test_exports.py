import inspect

import sqclick


def test_all_matches_public_names():
    # __init__ names each public name once, under its module in _EXPORTS
    for name in sqclick.__all__:
        assert hasattr(sqclick, name), name
    public = {name for name, value in vars(sqclick).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(sqclick.__all__)
