import ast
import sys
from pathlib import Path

import genecluster
from genecluster import clustering, errors, fuzzysoft, genefilter, ingest, validity

MODULES = (ingest, genefilter, fuzzysoft, clustering, validity, errors)


def test_package_exports_each_modules_names():
    names = [name for module in MODULES for name in module.__all__]
    assert sorted(genecluster.__all__) == sorted(["__version__", *names])
    assert len(set(genecluster.__all__)) == len(genecluster.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(genecluster, name) is getattr(module, name)


def test_package_imports_only_the_standard_library_and_numpy():
    sources = sorted(Path(genecluster.__file__).parent.glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "numpy", (source.name, name)
