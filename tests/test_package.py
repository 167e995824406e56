import types

import boxball

ROOT_NAMES = {
    "BasicPath",
    "InhomPath",
    "InvalidWordError",
    "time_evolution",
    "carrier_evolution",
    "decoding_pass",
    "encoding_pass",
    "separate",
    "combine",
    "check_commutation",
    "SeparationRecord",
}


def test_package_root_exports_only_the_documented_names():
    public = {
        name
        for name, value in vars(boxball).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == ROOT_NAMES
    assert boxball.__version__ == "0.1.0"
