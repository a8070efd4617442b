import importlib
import inspect
import pkgutil

import twodist

#: The functions on the ``analyze --tol-eig`` path: the clustering tolerance
#: is the one threshold a caller sets. Every other decision reads its named
#: module constant (linalg.EIG_TOL, linalg.RESIDUAL_TOL, oracle.VERIFY_TOL, ...).
TOL_EIG_PATH = {
    "representations.analyze_graph", "representations._analyze_stack",
    "representations._endpoints", "representations._j_arrowhead", "representations._j_stack",
    "linalg.extreme_groups", "linalg.cluster_gap",
}


def _callables(module):
    """(qualified name, callable) of every function and method defined in module."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            yield value.__qualname__, value
        elif inspect.isclass(value):
            for attr in vars(value).values():
                attr = getattr(attr, "fget", getattr(attr, "__func__", attr))
                if inspect.isfunction(attr):
                    yield attr.__qualname__, attr


def test_only_the_tol_eig_path_takes_a_tolerance():
    found = set()
    for info in pkgutil.iter_modules(twodist.__path__):
        module = importlib.import_module(f"twodist.{info.name}")
        for name, fn in _callables(module):
            if {"tol", "rtol"} & set(inspect.signature(fn).parameters):
                found.add(f"{info.name}.{name}")
    assert found == TOL_EIG_PATH
