"""Golden trace digests: every executor's exported trace, pinned.

For every catalog suite case the test runs five targets -- the abstract
runtime, csim on the all-software build, vsim on the all-hardware build,
and the fault-free co-simulation on both builds -- and compares the
sha256 of ``dump_jsonl(trace)`` against a digest recorded before the
executors were put on one dispatch core.  The pinned-oracle sweep in
``tests/exec`` cannot catch a dispatch change: it shares the dispatch
code it compares.  These digests do not.

A digest may move only when the behaviour it pins was a bug; each such
case is listed in ``REFRESHED`` with the reason and the new digest.  The
digests refreshed when the executors came to share one set of standard
bridges are also proven: undoing just the two record changes that sharing
made (:func:`undo_bridge_unification`) restores each golden digest.  Six
co-simulation digests moved again when the co-simulation's clock stopped
jumping to its quiescence budget (``CLOCK_REFRESHED``); re-adding just that
jump (:class:`BudgetJumpCoSim`) restores each ``REFRESHED`` digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.marks.partition import marks_for_partition
from repro.mda.compiler import ModelCompiler
from repro.models import build_model
from repro.models.catalog import CATALOG
from repro.obs import dump_jsonl
from repro.cosim import CoSimMachine, US_TO_NS
from repro.cosim.engine import QUIESCENCE_BUDGET_US
from repro.mda.csim import CSoftwareMachine
from repro.mda.vsim import VHardwareMachine
from repro.runtime import Simulation
from repro.verify import run_case, suite_for

TARGETS = ("abstract", "csim", "vsim", "cosim-sw", "cosim-hw")


class BudgetJumpCoSim(CoSimMachine):
    """The co-simulation with its old clock jump put back: its
    ``run_to_quiescence`` left ``now`` at the one-hour budget horizon
    even when the run quiesced long before it."""

    def run_to_quiescence(self, max_steps: int = 1_000_000) -> int:
        horizon = (self.now // US_TO_NS + QUIESCENCE_BUDGET_US) * US_TO_NS
        steps = super().run_to_quiescence(max_steps)
        self.now = max(self.now, horizon)
        return steps


def target_factories(model_name: str, cosim=CoSimMachine) -> dict:
    """One fresh-executor factory per pinned executor for *model_name*."""
    model = build_model(model_name)
    component = model.components[0]
    compiler = ModelCompiler(model)
    sw_build = compiler.compile(marks_for_partition(component, ()))
    hw_build = compiler.compile(
        marks_for_partition(component, tuple(component.class_keys)))
    return {
        "abstract": lambda: Simulation(build_model(model_name)),
        "csim": lambda: CSoftwareMachine(sw_build.manifest),
        "vsim": lambda: VHardwareMachine(hw_build.manifest),
        "cosim-sw": lambda: cosim(sw_build),
        "cosim-hw": lambda: cosim(hw_build),
    }


def exported_traces() -> dict[tuple[str, str, str], str]:
    """(model, case, target) -> the case's exported JSONL trace."""
    traces = {}
    for entry in CATALOG:
        factories = target_factories(entry.name)
        for case in suite_for(entry.name):
            for name in TARGETS:
                target = factories[name]()
                run_case(case, target)
                traces[(entry.name, case.name, name)] = dump_jsonl(
                    target.trace)
    return traces


def budget_jump_traces(keys) -> dict[tuple[str, str, str], str]:
    """The co-simulation traces of *keys*, run on :class:`BudgetJumpCoSim`."""
    traces = {}
    for model_name, case_name, name in keys:
        case = next(case for case in suite_for(model_name)
                    if case.name == case_name)
        target = target_factories(model_name, BudgetJumpCoSim)[name]()
        run_case(case, target)
        traces[(model_name, case_name, name)] = dump_jsonl(target.trace)
    return traces


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: recorded before the executors shared one dispatch core
GOLDEN: dict[tuple[str, str, str], str] = {
    ('microwave', 'cook-runs-to-complete', 'abstract'):
        '77cc065980dab21e751e366a4c4475d55dc99b46a391268141940cb094bf08f8',
    ('microwave', 'cook-runs-to-complete', 'csim'):
        'db433eb344af40d53ff2b48cf57ca9fda816eeea0e4efb521c02b490c2896bb6',
    ('microwave', 'cook-runs-to-complete', 'vsim'):
        'b8c8273e55e85bafbebe23004f333ce79b4392ba37983be980820d3e6699cc17',
    ('microwave', 'cook-runs-to-complete', 'cosim-sw'):
        '36251a8aae7fe0c6a391e3b5cfeceeee45550e6bbac0975cdd6f475b957da21e',
    ('microwave', 'cook-runs-to-complete', 'cosim-hw'):
        'c66b9a63b85809ae8f9c416a8d961159ae82501d6053e5cb9f54a8c7645565a1',
    ('microwave', 'door-open-pauses-cooking', 'abstract'):
        '4fe571c898cdfaaf2559a9b0898601459b8b09a715f23e25537a1a8cf5d728bf',
    ('microwave', 'door-open-pauses-cooking', 'csim'):
        '0d8f2257418c7a7b80d214aba21dd9e701fd93db8e5a61b16da6314ef868590b',
    ('microwave', 'door-open-pauses-cooking', 'vsim'):
        'ea46346d2dbfa35a2df275b41d70d0138f6a4c2780aba2574446b4f1e6844064',
    ('microwave', 'door-open-pauses-cooking', 'cosim-sw'):
        '94237632d387499ee823bb83e10b682e3a6755b55b13b8a8d934923eaae567e6',
    ('microwave', 'door-open-pauses-cooking', 'cosim-hw'):
        '1bc30aa96c5010fccb5ba7bb4301a67d67e2e70c9b03f26389eb973459d853b1',
    ('microwave', 'second-cook-from-complete', 'abstract'):
        '6147b7a52b4d7f66e8e0e409a326bd257b0a35b90c11e108ad31ac5d74ff8f96',
    ('microwave', 'second-cook-from-complete', 'csim'):
        'd1e72e2f54cb94f530941a846ab258b4f624af81d27732fb1e730222ce36d45b',
    ('microwave', 'second-cook-from-complete', 'vsim'):
        'bfc6235fe04cf4d99e507fd6b6d5c9438c8fbd80f4bb9362dad60f442995cab8',
    ('microwave', 'second-cook-from-complete', 'cosim-sw'):
        '6f0d6601050fb69a78189dd257bfbfd52c2c90cfc996d24bf9dc4bbe4d844f41',
    ('microwave', 'second-cook-from-complete', 'cosim-hw'):
        'cf962593a2ff82e53b8c90a9304f8b39588f12b9260e9d68022ebf4d4823ee48',
    ('microwave', 'idle-ignores-door-traffic', 'abstract'):
        'e7e0eb926b031a909a975428ca55bfda0ee20bae7da781fba9b1f59007f8d8c4',
    ('microwave', 'idle-ignores-door-traffic', 'csim'):
        'e7e0eb926b031a909a975428ca55bfda0ee20bae7da781fba9b1f59007f8d8c4',
    ('microwave', 'idle-ignores-door-traffic', 'vsim'):
        'da79af79bf017696454e697285c1ea4769ed5c6345c5f40ba4a784b111398d7d',
    ('microwave', 'idle-ignores-door-traffic', 'cosim-sw'):
        'cedbfac947c4c1e276706d9be4d77d0082836f88710a1594edc31aa3b1e47acf',
    ('microwave', 'idle-ignores-door-traffic', 'cosim-hw'):
        '59f1100c2f887f78a720c6dcfb3592c3754ecf7a8282b46ff21fdffb959d0456',
    ('microwave', 'zero-second-cook-completes-immediately', 'abstract'):
        'e35c4fbf058cb5ebda10ae7b76c11831e9238536b673a021cafa41f9a9f17311',
    ('microwave', 'zero-second-cook-completes-immediately', 'csim'):
        '246657693fd33446174deb4414bf5bd54dd5fe0a43fcb6e4001e30165bb060d4',
    ('microwave', 'zero-second-cook-completes-immediately', 'vsim'):
        'fe6599842788d4c9c07db53390824d31420c771e24b998a452115b172f2c41ef',
    ('microwave', 'zero-second-cook-completes-immediately', 'cosim-sw'):
        '45c9945e71b6bd0817179c3265a1e582d999fbd2f910f8d7d90a8cbd49ab9c79',
    ('microwave', 'zero-second-cook-completes-immediately', 'cosim-hw'):
        '9e5f7ae8f49dc7023574ee133e2cdfc9c14dd428e848ee9df05e42915ef0c171',
    ('microwave', 'door-open-from-complete-resets', 'abstract'):
        '333c233d7c427a8cfa0581e36c31d555ba4b8457b2239444f850e6dae07fe334',
    ('microwave', 'door-open-from-complete-resets', 'csim'):
        '1e73315248e2ba4f2f80f0cf8d17f8e73af6b0303440aa12e3b2e7e83c441675',
    ('microwave', 'door-open-from-complete-resets', 'vsim'):
        '9bf8193a0b1230871f19b5d5aee877dd20494fcb9435692af2319073534cf859',
    ('microwave', 'door-open-from-complete-resets', 'cosim-sw'):
        '540bc1675ca0efa8117fb48355f4742e8aa38fbbaf5c9e94229763571709e415',
    ('microwave', 'door-open-from-complete-resets', 'cosim-hw'):
        '4ccb1b5594dbb3eb11dcf0b711c6d51a76c1b2fee9abc5394e040b399ed291ec',
    ('trafficlight', 'phases-cycle', 'abstract'):
        '63277c6a55014a14f7a28a9ad303568c7988e38a4e39165e8e4a46265bc7a3b2',
    ('trafficlight', 'phases-cycle', 'csim'):
        '4577f70487cb6ad412c97fb745e3eba7efa372af24db40b6ee6b1ab2515584c8',
    ('trafficlight', 'phases-cycle', 'vsim'):
        '50c5893d9bc487d775c00fe487d9703c26c4b32dba1608d033aa808e11c250f4',
    ('trafficlight', 'phases-cycle', 'cosim-sw'):
        '71457540dccbac7dd2e45c48c876a4ec345b0fef081bf8e911a2b8a83bdce851',
    ('trafficlight', 'phases-cycle', 'cosim-hw'):
        '1e9779cb106a843697f72e351287bb894192d245fcf5ec7a1f8b09c387ba3377',
    ('trafficlight', 'pedestrian-cuts-green', 'abstract'):
        '713aa2f80e0e29156502a0b07872d7e9c4c107df3fa7f04ac91a2a29d395a471',
    ('trafficlight', 'pedestrian-cuts-green', 'csim'):
        '5f219eae35892b58c5295487b83296a7ee67dd72c433d0101ca02a6bdc7d2fee',
    ('trafficlight', 'pedestrian-cuts-green', 'vsim'):
        '5129534354b5cf2da1653f2674ff669d4abdfb26cd0681f770128345532c2f53',
    ('trafficlight', 'pedestrian-cuts-green', 'cosim-sw'):
        'fefb651aae84f9501548d980153b71e62f8d548a2c447367674c33173527853a',
    ('trafficlight', 'pedestrian-cuts-green', 'cosim-hw'):
        '819b29ef54dfb0bcd74c22b4d37d917bcd605f1204eeb2a3b312c5939af5fa17',
    ('trafficlight', 'button-debounces', 'abstract'):
        'a1464e648947c04477a48b0ca58d78af91696034c8e0f556a21c1543f126325b',
    ('trafficlight', 'button-debounces', 'csim'):
        '85cb3dd2cdfef21becdac9bc6b29920475ee46df42ec24a88a76fbdaf9d0f7a6',
    ('trafficlight', 'button-debounces', 'vsim'):
        'eb88488632639469263057c43cb44ee96874e4b77c3c439934d9e9acdd201960',
    ('trafficlight', 'button-debounces', 'cosim-sw'):
        '38c54c252116fe23deb91f29cbfd62c62b9bb6e425ecfc76cc9c1dd39021a400',
    ('trafficlight', 'button-debounces', 'cosim-hw'):
        '03af23aec0a3ede96531fd699591b9c9feb12175a2ac20005596922178076994',
    ('trafficlight', 'two-full-cycles', 'abstract'):
        '61657a4bb43afe556130568bbe45dd545f7ad130c4d54e84b2bd34ee8f272de5',
    ('trafficlight', 'two-full-cycles', 'csim'):
        '8ddded6bc9ff26e31dbab452469e1d2844d46fad18dad8ce6fe1d7e95c443c20',
    ('trafficlight', 'two-full-cycles', 'vsim'):
        '30fba45a7fa0558ce656a59d874a3489ddbbd09f17e38311508984b3461e13b6',
    ('trafficlight', 'two-full-cycles', 'cosim-sw'):
        'ddb95c7e45b988f4a36c77f190406d24791af71a4eaba11ff9c69c04de9eec91',
    ('trafficlight', 'two-full-cycles', 'cosim-hw'):
        '613590b0e4dab73f496614a672317a4f4056fac17d2306a6d57923dcbcff5498',
    ('packetproc', 'one-clear-packet', 'abstract'):
        '1ece24e0ca98c9e7f42ac678c8b4e6b6e39ed68cde49c85412d7960be9483b46',
    ('packetproc', 'one-clear-packet', 'csim'):
        'b1119b18c2a684049d9d08071080a1d3ce8f2ecbdd9b6f39601b62043a0d6e0f',
    ('packetproc', 'one-clear-packet', 'vsim'):
        '01f5b58242e2bbdf8373986fa0291975daec578e07d6e356a1e67b022bb3d655',
    ('packetproc', 'one-clear-packet', 'cosim-sw'):
        'd89d4b20e660ec38b1abd6329b78b617308e2ad60a4b0ebc5fbef1aeee070db0',
    ('packetproc', 'one-clear-packet', 'cosim-hw'):
        'b86a0467edf403748290e13385ae0388d31d3fe8585afe88ec59945b99136e78',
    ('packetproc', 'one-crypto-packet', 'abstract'):
        '517790121e3aaab0c200dabc14a7bc5d9e45638fa4ed67abcb44cceb29160eaf',
    ('packetproc', 'one-crypto-packet', 'csim'):
        '475191a9d011cadafae90ae81c6acfdaaa0b1c69bc6ba99b8927b783e3a60c9f',
    ('packetproc', 'one-crypto-packet', 'vsim'):
        '1aabab7abfd26b46a95bd22a3274a5d32fd7e7ce11f2cfd296038fd19dd2b4c7',
    ('packetproc', 'one-crypto-packet', 'cosim-sw'):
        '76feecca9f18e2f12ee40a1d240f54a69bcdb7dba1fe393e1cbb81b664a97464',
    ('packetproc', 'one-crypto-packet', 'cosim-hw'):
        '447700821aec6a351a3afc65952c83cfe4a352fb449290579ade7c0fe0bbdcdd',
    ('packetproc', 'burst-of-eight', 'abstract'):
        '98306abd39d51565ec0c0386bf4aa60a81c1dfda37a2a0f654ccf24e5fea7688',
    ('packetproc', 'burst-of-eight', 'csim'):
        '861f1a4df7eaa70ea0a8d8a37f944b5f154224adb59c07671b4fc819e1eb58b1',
    ('packetproc', 'burst-of-eight', 'vsim'):
        'b684ea827748b8f58821e3e4c99c8b804508a01e5bfc6ec31c11878ffa2bda73',
    ('packetproc', 'burst-of-eight', 'cosim-sw'):
        '28e05eb5a715ee5e552a8892430c4d48b48a3d1b11572f3c0ce559fdf39c6203',
    ('packetproc', 'burst-of-eight', 'cosim-hw'):
        '400dd70b3105e0264ef8f66f50a3724b4c6563bfb4ff0c8a63e02464144153d9',
    ('packetproc', 'jumbo-packet-round-count', 'abstract'):
        '517790121e3aaab0c200dabc14a7bc5d9e45638fa4ed67abcb44cceb29160eaf',
    ('packetproc', 'jumbo-packet-round-count', 'csim'):
        '475191a9d011cadafae90ae81c6acfdaaa0b1c69bc6ba99b8927b783e3a60c9f',
    ('packetproc', 'jumbo-packet-round-count', 'vsim'):
        '1aabab7abfd26b46a95bd22a3274a5d32fd7e7ce11f2cfd296038fd19dd2b4c7',
    ('packetproc', 'jumbo-packet-round-count', 'cosim-sw'):
        '0a65fea547e81227551c3857e6f15d79b35d444dcaa158a376af95090c7f9947',
    ('packetproc', 'jumbo-packet-round-count', 'cosim-hw'):
        '8c0b4049c921a1de05caef359086ee8c98426846e1c0183f043369b0e0cf55e8',
    ('elevator', 'single-call-served', 'abstract'):
        '2e399c4c46611f4c9ca5d89898501b4be9e5611821fd817a10701f7cb081a23d',
    ('elevator', 'single-call-served', 'csim'):
        'a9c4d378100a24e2f1d5c71e6dd32c557fdca31b7288d1c214bb1f0f62ddd7ed',
    ('elevator', 'single-call-served', 'vsim'):
        '3b22dc97554dc658731d9802f9e6a24e2cfcdb81785587e209cebf451dd15430',
    ('elevator', 'single-call-served', 'cosim-sw'):
        '7f0d8ff64df9d49294c17f06a29349a089a92fb7b6ab21af50a6d1f831b65188',
    ('elevator', 'single-call-served', 'cosim-hw'):
        'a00e0f7242938492aa21f782e59f92a50751a88b3378eae253e022a06799694e',
    ('elevator', 'no-idle-car-drops-call', 'abstract'):
        '3261bae27866fa936ba49d23a7dc22038b63c1bbaf3fe1624eb6c9e02b31c2e7',
    ('elevator', 'no-idle-car-drops-call', 'csim'):
        '983508c652f166f0e325f0423e3ad67d4c7db2cef3bd56ba59a44dd2f79a90a2',
    ('elevator', 'no-idle-car-drops-call', 'vsim'):
        '8eea16d54f905ebf61d07594bd75cc1476e8682f4e241f42e8c26b7e35e01a2b',
    ('elevator', 'no-idle-car-drops-call', 'cosim-sw'):
        '05071ab410d44e5f3b73c050aae7dbaf1c7977a1f4d7f81c6df74f4734c8bd0c',
    ('elevator', 'no-idle-car-drops-call', 'cosim-hw'):
        'f6b5a42982f1ec65f994dc23b3d378974b08c1582e40be91bd6a7ee02a33ab38',
    ('elevator', 'two-cars-split-work', 'abstract'):
        '99ee9ec8f8cdd7959cc405ff8cb9c7c45a0440939796e02a7df38aa0b1c4b8c2',
    ('elevator', 'two-cars-split-work', 'csim'):
        'c2064fe1383f61916b1b5bc668d8224d84732e6e7c3978ef81829948a43c4126',
    ('elevator', 'two-cars-split-work', 'vsim'):
        '21cc0cfd07b9a9fb626ff0a3b1dd6fcff3292ebd9443e4621fbc42f257a78bb1',
    ('elevator', 'two-cars-split-work', 'cosim-sw'):
        '1b7a725ae416a47587feda5266fb0c9bbb1dfb796bab8db5c12c120a3a7b6682',
    ('elevator', 'two-cars-split-work', 'cosim-hw'):
        '9af0551de8625cd7e4b2eec4072c0f3d672fdf38505a50793ee50593de33f3f6',
    ('elevator', 'downward-travel', 'abstract'):
        '0fea492b4dca6755e59b158517c53d0dbe1f005c935e49483c4291874180e8eb',
    ('elevator', 'downward-travel', 'csim'):
        '11c76df4282dc8b6b18da5800710fe1abb95a0b76fe9bf80a264811b6ce77b6c',
    ('elevator', 'downward-travel', 'vsim'):
        'b1472f7dcc46f2ed9857befd8dc8d7e5bbb899494273ced260e1d177ae6d834e',
    ('elevator', 'downward-travel', 'cosim-sw'):
        'e9df232c89cf2eefa0c75b9d12bf91f39ff1f412578069ff62cffd6f9860059d',
    ('elevator', 'downward-travel', 'cosim-hw'):
        'e76f1bac1e005eb683b3c30f88ed48a195afe6b8cf409566cbcb2433faee8020',
    ('checksum', 'single-job-correct', 'abstract'):
        '479694c8a6641821a4c8d933a58a641f6aacf2592aee5711d0c4c10f1eace582',
    ('checksum', 'single-job-correct', 'csim'):
        '479694c8a6641821a4c8d933a58a641f6aacf2592aee5711d0c4c10f1eace582',
    ('checksum', 'single-job-correct', 'vsim'):
        '333645ba8e3953680c21b9f4973f6b02e4599649024982fe0d5497de9d65fb85',
    ('checksum', 'single-job-correct', 'cosim-sw'):
        '74b5d90e63a13cf32dad2c49576bc4445fdcd357819bdcc575688abcc791de65',
    ('checksum', 'single-job-correct', 'cosim-hw'):
        'eedac8508f15228b3c98fe81b10c07397b9482895df5a09da820526b5e2b4c1d',
    ('checksum', 'job-value-matches-reference', 'abstract'):
        '479694c8a6641821a4c8d933a58a641f6aacf2592aee5711d0c4c10f1eace582',
    ('checksum', 'job-value-matches-reference', 'csim'):
        '479694c8a6641821a4c8d933a58a641f6aacf2592aee5711d0c4c10f1eace582',
    ('checksum', 'job-value-matches-reference', 'vsim'):
        '333645ba8e3953680c21b9f4973f6b02e4599649024982fe0d5497de9d65fb85',
    ('checksum', 'job-value-matches-reference', 'cosim-sw'):
        '74b5d90e63a13cf32dad2c49576bc4445fdcd357819bdcc575688abcc791de65',
    ('checksum', 'job-value-matches-reference', 'cosim-hw'):
        'eedac8508f15228b3c98fe81b10c07397b9482895df5a09da820526b5e2b4c1d',
    ('checksum', 'two-jobs-serialized', 'abstract'):
        '6d9fdab15efa2a1c9516de191dd7336e8dc8dcfc8017afa968dc2a2a4c71700c',
    ('checksum', 'two-jobs-serialized', 'csim'):
        '1d52098e5b8e592a1f66a8e0c94d8e026a77cde755008397986952844701538d',
    ('checksum', 'two-jobs-serialized', 'vsim'):
        'f91ca8460c265049f6e25ca43d1d15c362b0f43429c55203f3576560a0c8b4b4',
    ('checksum', 'two-jobs-serialized', 'cosim-sw'):
        '2a0e5249939bc7cafef8e5feff595a7adb9cf472d83679d41d6b033eba28fbd4',
    ('checksum', 'two-jobs-serialized', 'cosim-hw'):
        '6398df656c5b18f2520699cbede99ee92a3ca9762747d4a4437a47dfb9b781cf',
    ('checksum', 'zero-length-job', 'abstract'):
        '479694c8a6641821a4c8d933a58a641f6aacf2592aee5711d0c4c10f1eace582',
    ('checksum', 'zero-length-job', 'csim'):
        '479694c8a6641821a4c8d933a58a641f6aacf2592aee5711d0c4c10f1eace582',
    ('checksum', 'zero-length-job', 'vsim'):
        '333645ba8e3953680c21b9f4973f6b02e4599649024982fe0d5497de9d65fb85',
    ('checksum', 'zero-length-job', 'cosim-sw'):
        '969979470e7ad95e1dae5653091e8d64ef146636f16d81967e0a5c61af566cd9',
    ('checksum', 'zero-length-job', 'cosim-hw'):
        'fcf074c015d790eab1408a400bbbf84f85ac83b3ea45e22ff06a92145aa33ac5',
}

#: (model, case, target) -> (new digest, why the old one pinned a bug)
_STALE_TICK = (
    "TIM::timer_cancel cancelled in an event pool the co-simulation never "
    "drained, so the cancelled T1 tick still fired and cut the next green"
)
_LOG_DROPPED = (
    "the architecture runtimes kept LOG::info in a private list instead of "
    "the trace, so their traces lacked the log record the abstract "
    "runtime writes"
)
_TIMER_UNSENT = (
    "the abstract runtime traced TIM::timer_start as timer_set, never as "
    "signal_sent, so the causality check reported its timer ticks unsent"
)
REFRESHED: dict[tuple[str, str, str], tuple[str, str]] = {
    ('trafficlight', 'pedestrian-cuts-green', 'cosim-sw'): (
        '9b9c115c0800f54c31ad706a1ab6006cacc2894beb9ec423931b44f69780f235',
        _STALE_TICK),
    ('trafficlight', 'pedestrian-cuts-green', 'cosim-hw'): (
        'e9395976bd1723c8d20c48deee930639c880a24de22de23f0091e4dec0266b48',
        _STALE_TICK),
    ('microwave', 'cook-runs-to-complete', 'cosim-hw'): (
        '5d8fe27f58a51d0f3325bdc6ca870c9cea54dbf106ca402e69c212970a409b26',
        _LOG_DROPPED),
    ('microwave', 'cook-runs-to-complete', 'cosim-sw'): (
        '2497f8064f830195eda8d296eab5cd569e23f5912d213c62788f44b003d956b6',
        _LOG_DROPPED),
    ('microwave', 'cook-runs-to-complete', 'csim'): (
        'ef963b5a5bf9533899df42ab5957cf973b04f0a835b8db6c9a1ca7b5cb3c67bc',
        _LOG_DROPPED),
    ('microwave', 'cook-runs-to-complete', 'vsim'): (
        '8f14b580060b58d527c367f250ea99d280a2f168607318abfe1d6fbe122134c4',
        _LOG_DROPPED),
    ('microwave', 'door-open-from-complete-resets', 'cosim-hw'): (
        '39e77c8187694e617c6dd1649d8fa55ab682df13ff6f6a8c466c2863e94931d2',
        _LOG_DROPPED),
    ('microwave', 'door-open-from-complete-resets', 'cosim-sw'): (
        'f8575913ee9cb832bed58f9af854322d2de22a9b39dd7980dc8240ff524a4492',
        _LOG_DROPPED),
    ('microwave', 'door-open-from-complete-resets', 'csim'): (
        '333c233d7c427a8cfa0581e36c31d555ba4b8457b2239444f850e6dae07fe334',
        _LOG_DROPPED),
    ('microwave', 'door-open-from-complete-resets', 'vsim'): (
        '1d51c6b13922a5edd1be0773ee99a5237c450c734e31c1c1836b6b9605d9dcda',
        _LOG_DROPPED),
    ('microwave', 'door-open-pauses-cooking', 'cosim-hw'): (
        'f6cbf8a2fd8767dc19f86d81ac5dbd8c83366333ed5937957f1fc9fecf96d165',
        _LOG_DROPPED),
    ('microwave', 'door-open-pauses-cooking', 'cosim-sw'): (
        '4f8962a809c7cab0589aeb6fe0c6b6c2e53db6e9e4dfa1e7ce8c4cd1a9eb2bbc',
        _LOG_DROPPED),
    ('microwave', 'door-open-pauses-cooking', 'csim'): (
        '550fc8e0875bdf472ba1776ec49ee8c45e636775602055ad08c4810de99c22e2',
        _LOG_DROPPED),
    ('microwave', 'door-open-pauses-cooking', 'vsim'): (
        '53cf7e7766c9b3a95a668cdf939f419e553633241826579bf2ba081e25956eaa',
        _LOG_DROPPED),
    ('microwave', 'second-cook-from-complete', 'cosim-hw'): (
        '3426f17325cb05eb71ab3bae81b7efbc9f1299f403ae08299c0f9fbd4d4c2b85',
        _LOG_DROPPED),
    ('microwave', 'second-cook-from-complete', 'cosim-sw'): (
        'e6ba7990fa9a82e1127e2869713f28317a3bd45f7055938e6ed406e772e766e3',
        _LOG_DROPPED),
    ('microwave', 'second-cook-from-complete', 'csim'): (
        '6147b7a52b4d7f66e8e0e409a326bd257b0a35b90c11e108ad31ac5d74ff8f96',
        _LOG_DROPPED),
    ('microwave', 'second-cook-from-complete', 'vsim'): (
        'ee457cf1a78bedd72830cddaacc8362db506952b6fb7686d1ac6f3e70ee3a52d',
        _LOG_DROPPED),
    ('microwave', 'zero-second-cook-completes-immediately', 'cosim-hw'): (
        '4517be87a4eea692aa1da4b72f3757f9f99b809a6687e32e27bc07f3d25bbe39',
        _LOG_DROPPED),
    ('microwave', 'zero-second-cook-completes-immediately', 'cosim-sw'): (
        'f95c274e00ca1e5e19ce16342aa875cef8cb691b1f5cb56bff9a2f6b1b458815',
        _LOG_DROPPED),
    ('microwave', 'zero-second-cook-completes-immediately', 'csim'): (
        'e35c4fbf058cb5ebda10ae7b76c11831e9238536b673a021cafa41f9a9f17311',
        _LOG_DROPPED),
    ('microwave', 'zero-second-cook-completes-immediately', 'vsim'): (
        '024f684efa0811d26d22cd3ed0ad8732dc3eacde77248d0bc9346acc39171d92',
        _LOG_DROPPED),
    ('trafficlight', 'button-debounces', 'abstract'): (
        '85cb3dd2cdfef21becdac9bc6b29920475ee46df42ec24a88a76fbdaf9d0f7a6',
        _TIMER_UNSENT),
    ('trafficlight', 'pedestrian-cuts-green', 'abstract'): (
        '5f219eae35892b58c5295487b83296a7ee67dd72c433d0101ca02a6bdc7d2fee',
        _TIMER_UNSENT),
    ('trafficlight', 'phases-cycle', 'abstract'): (
        '4577f70487cb6ad412c97fb745e3eba7efa372af24db40b6ee6b1ab2515584c8',
        _TIMER_UNSENT),
    ('trafficlight', 'two-full-cycles', 'abstract'): (
        '8ddded6bc9ff26e31dbab452469e1d2844d46fad18dad8ce6fe1d7e95c443c20',
        _TIMER_UNSENT),
}


_CLOCK_JUMP = (
    "the co-simulation's run_to_quiescence left now at its one-hour "
    "quiescence budget, so each stimulus injected after a run step, and "
    "everything it caused, was stamped an hour late"
)
#: digests refreshed a second time, over ``REFRESHED``:
#: (model, case, target) -> (new digest, why the old one pinned a bug)
CLOCK_REFRESHED: dict[tuple[str, str, str], tuple[str, str]] = {
    ('microwave', 'door-open-pauses-cooking', 'cosim-sw'): (
        '89c1da43d1c484e53d36e17564fa0d264f05edb9d49438914ee4d46d502f169e',
        _CLOCK_JUMP),
    ('microwave', 'door-open-pauses-cooking', 'cosim-hw'): (
        '46a516681056bfa84e0b818e9410b486ae3683af8ae672a0e4b18c1e6792d800',
        _CLOCK_JUMP),
    ('microwave', 'second-cook-from-complete', 'cosim-sw'): (
        '1475d41028ebe4af268d9a01c44a151ad907cd3a2b1db4f32d5e785110706b56',
        _CLOCK_JUMP),
    ('microwave', 'second-cook-from-complete', 'cosim-hw'): (
        'dbbac37c9bbc40e7057f2ea0539c0a37f125b7b0e68a37aac76f3a9bb4f61f45',
        _CLOCK_JUMP),
    ('microwave', 'door-open-from-complete-resets', 'cosim-sw'): (
        'af911c14496fdd01a7c3571a05a52f2aeadc46db563c74685d513881563ed91c',
        _CLOCK_JUMP),
    ('microwave', 'door-open-from-complete-resets', 'cosim-hw'): (
        'de04a1c258381c1d6bdb007b2890d726ce2e9b44e9bff4f7de05a8f5d2e569bf',
        _CLOCK_JUMP),
}


def pinned_digest(key: tuple[str, str, str]) -> str:
    """The digest *key*'s trace must have now."""
    return CLOCK_REFRESHED.get(key, REFRESHED.get(key, (GOLDEN[key],)))[0]


def undo_bridge_unification(target: str, text: str) -> str:
    """Rewrite an exported trace into what the executor wrote before the
    standard bridges were shared: the architecture targets drop their
    ``log`` records, and the abstract runtime's timer sends go back to
    ``timer_set`` records numbered per run."""
    header, *lines = text.splitlines()
    events = [json.loads(line) for line in lines]
    undone = []
    timers = 0
    for event in events:
        kind, data = event["kind"], event["data"]
        if target != "abstract" and kind == "log":
            continue
        previous = undone[-1] if undone else None
        if (target == "abstract" and kind == "signal_sent"
                and previous is not None
                and previous["kind"] == "bridge_call"
                and previous["data"]["entity"] == "TIM"
                and previous["data"]["operation"] == "timer_start"):
            timers += 1
            event = dict(event, kind="timer_set", data={
                "duration": data["delay"], "handle": data["target"],
                "label": data["label"], "timer": timers,
            })
        undone.append(event)
    for index, event in enumerate(undone):
        event["index"] = index
    return "\n".join(
        [header] + [json.dumps(event, sort_keys=True, separators=(",", ":"))
                    for event in undone]) + "\n"


@pytest.fixture(scope="module")
def traces():
    return exported_traces()


@pytest.fixture(scope="module")
def jump_traces():
    return budget_jump_traces(CLOCK_REFRESHED)


@pytest.fixture(scope="module")
def digests(traces):
    return {key: sha256(text) for key, text in traces.items()}


def test_every_case_on_every_target_is_pinned(digests):
    assert len(GOLDEN) == 110
    assert set(digests) == set(GOLDEN)


def test_traces_match_their_golden_digests(digests):
    moved = {
        key: digest for key, digest in digests.items()
        if digest != pinned_digest(key)
    }
    assert not moved, sorted(moved)


def test_putting_the_clock_jump_back_restores_every_refreshed_digest(
        jump_traces):
    assert len(CLOCK_REFRESHED) == 6
    for key, text in jump_traces.items():
        assert sha256(text) == REFRESHED[key][0], key


def test_undoing_the_shared_bridges_restores_every_golden_digest(
        traces, jump_traces):
    bridge_refreshed = [key for key, (_digest, reason) in REFRESHED.items()
                        if reason != _STALE_TICK]
    assert len(bridge_refreshed) == 24
    for key in bridge_refreshed:
        text = jump_traces.get(key, traces[key])
        assert sha256(undo_bridge_unification(key[2], text)) == \
            GOLDEN[key], key


def test_refreshed_digests_are_cosim_fixes_or_undo_proven():
    for (model, case, target), (_digest, reason) in REFRESHED.items():
        if reason == _STALE_TICK:
            assert target.startswith("cosim"), (model, case, target)
        else:
            assert reason in (_LOG_DROPPED, _TIMER_UNSENT)
            assert (target == "abstract") == (reason == _TIMER_UNSENT)
    for key, (_digest, reason) in CLOCK_REFRESHED.items():
        assert reason == _CLOCK_JUMP and key[2].startswith("cosim"), key
        assert REFRESHED[key][1] == _LOG_DROPPED, key
