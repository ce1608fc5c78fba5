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
