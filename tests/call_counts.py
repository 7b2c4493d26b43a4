"""Call counters for tests that bound how often a function runs."""

import sys


def count_calls(monkeypatch, owner, name: str) -> list:
    """The list that records each call of owner.name from now on."""
    fn, calls = getattr(owner, name), []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def count_imported(monkeypatch, owner, name: str) -> list:
    """count_calls for a function that obsent modules import by name: each
    obsent module that holds owner.name calls the counter by that name."""
    fn = getattr(owner, name)
    calls = count_calls(monkeypatch, owner, name)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("obsent") and getattr(module, name, None) is fn:
            monkeypatch.setattr(module, name, getattr(owner, name))
    return calls
