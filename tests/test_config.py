import math
from dataclasses import fields

from hypothesis import given, settings
from hypothesis import strategies as st

from fusionseg.config import MAX_MULT, TrainConfig, field_types
from fusionseg.errors import ConfigurationError
from fusionseg.segnet import AblationConfig

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -1, 0]))


def typed(kind):
    """Mostly a value of the field's own type, sometimes any JSON scalar."""
    own = {bool: st.booleans(), int: st.integers(), str: st.text(max_size=6),
           float: st.one_of(st.floats(), st.integers())}.get(kind)
    if kind is dict:
        own = st.fixed_dictionaries(
            {}, optional={k: typed(v)
                          for k, v in field_types(AblationConfig).items()})
        own = st.one_of(own, st.dictionaries(st.text(max_size=6), SCALARS,
                                             max_size=2))
    return st.one_of(own, own, SCALARS)


KNOWN = st.fixed_dictionaries(
    {}, optional={k: typed(v) for k, v in field_types(TrainConfig).items()})
JUNK = st.dictionaries(st.text(max_size=6), SCALARS, max_size=1)


@settings(max_examples=300, deadline=None)
@given(KNOWN, JUNK, st.booleans())
def test_from_dict_gives_valid_config_or_config_error(known, junk, add_junk):
    d = {**junk, **known} if add_junk else known
    try:
        cfg = TrainConfig.from_dict(d)
    except ConfigurationError:
        return
    assert cfg.seed >= 0
    assert 0 < cfg.width_mult <= MAX_MULT and 0 < cfg.depth_mult <= MAX_MULT
    assert cfg.gan_batch_size >= 1 and cfg.gan_iterations >= 0
    assert min(cfg.lr_min, cfg.lr_init, cfg.gan_lr, cfg.weight_decay,
               cfg.lambda_cyc) >= 0
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        assert type(value) is not float or math.isfinite(value), f.name
