import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from movable_ris.scenario import (
    ConfigError,
    DeploymentGeometry,
    PsoParams,
    SystemConfig,
    config_digest,
    default_config,
    noise_power,
    parse_config,
    rng_stream,
    serialize_config,
    validate,
)


def test_default_config_table_values():
    config, geometry = default_config()
    assert config.tx_antennas == (8, 8)
    assert config.rx_antennas == (8, 8)
    assert config.carrier_frequency_ghz == 28.0
    assert config.num_streams == 2
    assert config.num_paths == 10
    assert config.path_loss_exponent == 3.6
    assert config.angular_spread_deg == (10.0, 10.0)
    assert config.bandwidth_hz == 10e6
    assert config.noise_psd_dbm_per_hz == -174.0
    assert config.pso.iterations == 30
    assert config.pso.swarm_size == 10
    assert geometry.tx_position == (0.0, 0.0, 2.0)
    assert geometry.ue_position == (100.0, 100.0, 2.0)
    assert geometry.platform_x_range == (40.0, 70.0)
    assert geometry.platform_y_range == (40.0, 70.0)


def test_default_spacing_and_height():
    config, geometry = default_config()
    assert config.element_spacing_wavelengths == 0.5
    assert geometry.ris_height_m == 5.0  # implementer default, recorded in metadata


def test_noise_power_examples():
    # -174 dBm/Hz over 10 MHz = -104 dBm
    assert noise_power(-174.0, 10e6) == pytest.approx(3.9810717055349695e-14, rel=1e-12)
    # 1 Hz bandwidth leaves the PSD value unchanged
    assert noise_power(-174.0, 1.0) == pytest.approx(10 ** (-20.4), rel=1e-12)
    # 0 dBm/Hz = 1 mW/Hz, over 1 kHz = 1 W
    assert noise_power(0.0, 1000.0) == pytest.approx(1.0, rel=1e-12)


def test_noise_power_rejects_bad_bandwidth():
    with pytest.raises(ConfigError):
        noise_power(-174.0, 0.0)
    with pytest.raises(ConfigError):
        noise_power(-174.0, -1.0)


@given(
    psd=st.floats(min_value=-200.0, max_value=0.0),
    bw1=st.floats(min_value=1.0, max_value=1e9),
    bw2=st.floats(min_value=1.0, max_value=1e9),
)
def test_noise_power_monotone(psd, bw1, bw2):
    lo, hi = sorted((bw1, bw2))
    assert noise_power(psd, lo) <= noise_power(psd, hi)
    assert noise_power(psd, lo) < noise_power(psd + 1.0, lo)


def test_validate_default_is_clean():
    assert validate(*default_config()) == []


def test_validate_streams_exceed_rf_chains():
    config, geometry = default_config()
    bad = replace(config, num_streams=3, max_rf_chains=2)
    errors = validate(bad, geometry)
    assert any("streams exceed RF chains" in e for e in errors)


def test_validate_empty_platform_range():
    config, geometry = default_config()
    bad = replace(geometry, platform_x_range=(70.0, 40.0))
    errors = validate(config, bad)
    assert any("empty range" in e for e in errors)


def test_validate_rejects_non_finite_values():
    config, geometry = default_config()
    bad = replace(config, tx_power_dbm=math.nan, carrier_frequency_ghz=math.inf)
    errors = validate(bad, geometry)
    assert any("tx_power_dbm must be finite" in e for e in errors)
    assert any("carrier_frequency_ghz must be finite" in e for e in errors)
    bad_geo = replace(geometry, ue_position=(100.0, -math.inf, 2.0))
    assert any("ue_position must be finite" in e for e in validate(config, bad_geo))


def test_validate_rejects_nodes_at_or_above_the_ris_plane():
    config, geometry = default_config()
    at_plane = replace(geometry, tx_position=(0.0, 0.0, geometry.ris_height_m))
    assert any("tx_position z = 5.0 must lie below the RIS plane" in e
               for e in validate(config, at_plane))
    above = replace(geometry, ue_position=(60.0, 90.0, 9.0))
    assert any("ue_position z = 9.0 must lie below the RIS plane" in e
               for e in validate(config, above))
    just_below = replace(geometry, ue_position=(60.0, 90.0, 4.999))
    assert validate(config, just_below) == []


@pytest.mark.parametrize("config_changes, geometry_changes", [
    (dict(path_loss_exponent=200.0), {}),  # 100 m ** 200 overflows a float
    (dict(path_loss_exponent=110.0), dict(tx_position=(55.0, 55.0, 4.999))),  # 0.001**110 is 0
    (dict(path_loss_mode="db", carrier_frequency_ghz=1e300), {}),
    (dict(tx_power_dbm=1e300), {}),
    (dict(noise_psd_dbm_per_hz=1e300), {}),
    ({}, dict(ue_position=(1e100, 0.0, 2.0))),
])
def test_validate_rejects_a_link_budget_beyond_the_float_range(config_changes,
                                                               geometry_changes):
    config, geometry = default_config()
    errors = validate(replace(config, **config_changes), replace(geometry, **geometry_changes))
    assert len(errors) == 1 and errors[0].startswith("link budget leaves the float range")


@pytest.mark.parametrize("config_changes", [
    dict(bandwidth_hz=1e-300),  # 3.98e-321 W: every rate would be non-finite
    dict(noise_psd_dbm_per_hz=-1e300),  # 0 W
])
def test_validate_rejects_a_noise_power_below_the_normal_floats(config_changes):
    config, geometry = default_config()
    errors = validate(replace(config, **config_changes), geometry)
    assert len(errors) == 1 and errors[0].startswith("noise power ")
    assert "underflows the float range" in errors[0]


@pytest.mark.parametrize("config_changes, geometry_changes, error", [
    (dict(monte_carlo_trials=0), {}, "monte_carlo_trials must be >= 1"),
    (dict(pso=PsoParams(swarm_size=0)), {}, "pso swarm_size must be >= 1"),
    (dict(pso=PsoParams(iterations=-1)), {}, "pso iterations must be >= 0"),
    ({}, dict(ue_position=default_config()[1].tx_position), "tx and ue positions coincide"),
])
def test_validate_names_a_count_or_position_it_rejects(config_changes, geometry_changes, error):
    config, geometry = default_config()
    assert validate(replace(config, **config_changes),
                    replace(geometry, **geometry_changes)) == [error]


def test_validate_rejects_a_negative_zero_angular_spread():
    # numpy's uniform(0.0, -0.0) refuses high < low
    config, geometry = default_config()
    errors = validate(replace(config, angular_spread_deg=(10.0, -0.0)), geometry)
    assert errors == ["angular spread must lie in [0, 90) degrees, got -0.0"]


@pytest.mark.parametrize("changes, keys", [
    (dict(tx_antennas=(1 << 20, 1 << 20)), "tx_antennas"),  # np.zeros would ask for 8 TiB
    (dict(rx_antennas=(1 << 20, 1 << 10)), "rx_antennas"),
    (dict(rx_antennas=(128, 128), tx_antennas=(128, 128)), "rx_antennas x tx_antennas"),
    (dict(pso=PsoParams(swarm_size=10**9)), "pso_swarm_size x num_paths x tx_antennas"),
    (dict(num_paths=10**9), "pso_swarm_size x num_paths x tx_antennas"),
    (dict(ris_elements=(1 << 20, 1 << 20)), "pso_swarm_size x num_paths x ris_elements"),
    # every swarm stack fits; the single-position RIS hops would hold 4.1e11 values
    (dict(ris_elements=(800, 800), tx_antennas=(800, 800)), "ris_elements x tx_antennas"),
    (dict(ris_elements=(800, 800), rx_antennas=(800, 800)), "rx_antennas x ris_elements"),
])
def test_validate_rejects_a_dense_stack_past_the_element_budget(changes, keys):
    # only counts are multiplied: nothing of that size is built
    config, geometry = default_config()
    errors = validate(replace(config, **changes), geometry)
    assert errors and all(" elements exceeds the budget of 67108864" in e for e in errors)
    assert any(e.startswith(f"{keys}: a dense stack of ") for e in errors), errors


def test_a_large_scenario_within_the_element_budget_is_valid():
    config, geometry = default_config()
    config = replace(config, ris_elements=(10, 10), tx_antennas=(64, 64), rx_antennas=(64, 64))
    assert validate(config, geometry) == []


def test_validate_collects_multiple_errors():
    config, geometry = default_config()
    bad_cfg = replace(config, num_paths=0, bandwidth_hz=-1.0)
    bad_geo = replace(geometry, ris_height_m=0.0)
    errors = validate(bad_cfg, bad_geo)
    assert len(errors) >= 3


# One non-default value per field of the three dataclasses. Applied one at a
# time each must move the digest; applied together they set every key of
# the config file to a non-default value.
CONFIG_PERTURBATIONS = dict(
    tx_antennas=(4, 8),
    rx_antennas=(8, 4),
    ris_elements=(5, 5),
    carrier_frequency_ghz=29.0,
    bandwidth_hz=20e6,
    noise_psd_dbm_per_hz=-170.5,
    tx_power_dbm=31.0,
    path_loss_exponent=3.1,
    num_paths=11,
    angular_spread_deg=(9.0, 10.3),
    element_spacing_wavelengths=0.45,
    num_streams=1,
    max_rf_chains=8,
    path_loss_mode="db",
    monte_carlo_trials=51,
    rng_seed=999,
)
PSO_PERTURBATIONS = dict(
    swarm_size=11,
    iterations=31,
    social_weight=1.7,
    cognitive_weight=2.3,
    inertia_start=0.85,
    inertia_end=0.35,
    velocity_clamp=0.45,
)
GEOMETRY_PERTURBATIONS = dict(
    tx_position=(0.0, 1.1, 2.0),
    ue_position=(90.0, 100.0, 2.5),
    platform_x_range=(41.0, 70.0),
    platform_y_range=(40.0, 69.7),
    ris_height_m=6.0,
)


def _perturbed_everywhere():
    config, geometry = default_config()
    config = replace(config, pso=replace(config.pso, **PSO_PERTURBATIONS), **CONFIG_PERTURBATIONS)
    return config, replace(geometry, **GEOMETRY_PERTURBATIONS)


def test_serialize_parse_round_trip_bit_identical():
    for config, geometry in (default_config(), _perturbed_everywhere()):
        text = serialize_config(config, geometry)
        config2, geometry2 = parse_config(text)
        assert config2 == config
        assert geometry2 == geometry
        # and the digest of the round-tripped pair is unchanged
        assert config_digest(config2, geometry2) == config_digest(config, geometry)


def test_parse_config_partial_override():
    config, geometry = default_config()
    text = "tx_power_dbm = 17.5\nris_height_m = 4.25  # comment\n"
    config2, geometry2 = parse_config(text, (config, geometry))
    assert config2.tx_power_dbm == 17.5
    assert geometry2.ris_height_m == 4.25
    assert config2.tx_antennas == config.tx_antennas


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("not_a_field = 3\n")


@pytest.mark.parametrize("first, second", [("tx_power_dbm = 10", "tx_power_dbm = 20"),
                                           ("pso_iterations = 4", "  pso_iterations=4  # same"),
                                           ("ue_position = 1 2 3", "ue_position = 4 5 3")])
def test_parse_config_rejects_a_key_set_twice(first, second):
    key = first.split("=")[0].strip()
    with pytest.raises(ConfigError, match=f"line 4: '{key}' is already set on line 2"):
        parse_config(f"# header\n{first}\nnum_paths = 4\n{second}\n")


def test_parse_config_rejects_malformed_line():
    with pytest.raises(ConfigError):
        parse_config("tx_power_dbm 17.5\n")
    with pytest.raises(ConfigError):
        parse_config("tx_antennas = 8\n")  # pair field needs two tokens


def test_digest_changes_iff_any_field_changes():
    config, geometry = default_config()
    base = config_digest(config, geometry)
    for cls, perturbations in ((SystemConfig, CONFIG_PERTURBATIONS),
                               (PsoParams, PSO_PERTURBATIONS),
                               (DeploymentGeometry, GEOMETRY_PERTURBATIONS)):
        unperturbed = {f.name for f in fields(cls)} - set(perturbations) - {"pso"}
        assert not unperturbed, f"no perturbation for {cls.__name__} fields {unperturbed}"

    for name, value in CONFIG_PERTURBATIONS.items():
        changed = config_digest(replace(config, **{name: value}), geometry)
        assert changed != base, f"digest missed config field {name}"
    for name, value in PSO_PERTURBATIONS.items():
        changed = config_digest(replace(config, pso=replace(config.pso, **{name: value})), geometry)
        assert changed != base, f"digest missed pso field {name}"
    for name, value in GEOMETRY_PERTURBATIONS.items():
        changed = config_digest(config, replace(geometry, **{name: value}))
        assert changed != base, f"digest missed geometry field {name}"


def test_rng_stream_deterministic_and_split():
    a = rng_stream(42, 1, 2).standard_normal(8)
    b = rng_stream(42, 1, 2).standard_normal(8)
    c = rng_stream(42, 1, 3).standard_normal(8)
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, c)


def test_rng_stream_rejects_negative_seed():
    with pytest.raises(ConfigError):
        rng_stream(-1)


def test_config_is_immutable():
    config, _ = default_config()
    with pytest.raises(AttributeError):
        config.num_streams = 3
