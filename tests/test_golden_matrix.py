"""Golden outputs of every detector path.

One group of every detector (the densities and thresholds of
test_harness._every_detector) runs through ``harness._map_blocks`` in each
cell of LoS / non-LoS x perfect / LS CSI x three arithmetic cells, at 0 and
8 dB over blocks 0-3.  On two or more cores a round then runs its helper
thread, and with one core in the affinity mask it runs inline: both paths
must give these bytes.

Each (cell, SNR) pins a sha256 of every config-block's BlockResult in the
group's order, their total bit errors, and, in fixed point, a sha256 of the
codes and scale_exp of each filter ``harness.quantize_filter`` returns, in
call order.  The values were recorded from the tree of commit 218b6ff and
are never re-recorded: a change that moves them changes an answer.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

import beamspace.harness as harness
from beamspace.channel import ScenarioConfig
from beamspace.harness import SimConfig

SNRS_DB = (0.0, 8.0)
BLOCKS = range(4)
ARITHMETIC = {"fixed6": ("fixed", 6), "float6": ("float", 6), "float": ("float", None)}


def _group(cell: str) -> tuple:
    los, csi_mode, arithmetic = cell.split("-")
    arithmetic, adc_bits = ARITHMETIC[arithmetic]
    base = SimConfig(scenario=ScenarioConfig(num_antennas=16, num_ues=2, los=los == "los"),
                     csi_mode=csi_mode, arithmetic=arithmetic, adc_bits=adc_bits,
                     coherence_len=64, seed=2024)
    group = [dataclasses.replace(base, algorithm=a) for a in ("almmse", "blmmse")]
    group += [dataclasses.replace(base, algorithm=a, delta=d)
              for a in ("eomp", "comp") for d in (0.25, 1.0, 0.125, 0.5)]
    group += [dataclasses.replace(base, algorithm=a, tau_w=w, tau_y=y)
              for a in ("spade", "cspade") for w, y in ((0.0, 0.0), (0.02, 4.0), (0.05, 8.0))]
    return tuple(group)


def _filter_digest(eq) -> str:
    h = hashlib.sha256(np.ascontiguousarray(eq.fx.codes).tobytes())
    h.update(np.asarray(eq.scale_exp, dtype=np.int64).tobytes())
    return h.hexdigest()


def _outputs(cell: str, monkeypatch) -> dict:
    """SNR -> (results sha256, total bit errors, filter sha256s) of a cell."""
    filters = []
    quantize = harness.quantize_filter

    def recorded(eq, fmt):
        out = quantize(eq, fmt)
        filters.append(_filter_digest(out))
        return out

    monkeypatch.setattr(harness, "quantize_filter", recorded)
    outputs = {}
    for snr_db in SNRS_DB:
        filters.clear()
        results = harness._map_blocks(_group(cell), snr_db, BLOCKS)
        rows = repr([dataclasses.astuple(r) for r in results]).encode()
        outputs[snr_db] = (hashlib.sha256(rows).hexdigest(),
                           sum(r.bit_errors for r in results), list(filters))
    return outputs


GOLDEN = {
    "los-perfect-fixed6": {
        0.0: ("3718401bc5181066585d18b22e70a80f5ce6dd066dc18ca06c317477bef7ed1d", 1874, [
            "fa02015392a40fb5d83e7768bf7f0a28703b0adae72f220eeb7044cb4c252a7a",
            "21223ea50e1d869ff8e7ccd511aca6e944e85368fa396ec6f4b3e2c3c5f317dd",
            "2be8d31e238cf158a8561319934e89d751b42c6513e075f073999add3c9cc4fa",
            "21223ea50e1d869ff8e7ccd511aca6e944e85368fa396ec6f4b3e2c3c5f317dd",
            "1fa3e5ebeba0c8baf35bdc665a1644ce1d5546f54b8b51df8dbb9028c18dfc81",
            "0a61253d882f8afd8cdd1b9b514f8e213a26d465bb0044c30fd1452349e34754",
            "d3bac5f495572a4ddf1f7f2adaf0ddbf1cd9c846894256f83c3b3cee65c36a36",
            "21223ea50e1d869ff8e7ccd511aca6e944e85368fa396ec6f4b3e2c3c5f317dd",
            "c15c52b858217d986c26326d13f243a79a71e619957e7ff01a341fb622db2fb4",
            "8ca04cc0889aec84e11a2a9678b0dfe0f98609fbb56f72b889a5e277741092f4",
        ]),
        8.0: ("321cc0437024665ea2e19cb0452d3e6271343525520a4ad2cb4d27833f18e8d7", 10, [
            "cfee0c8a5fcdf14eaff5256aa32d3984a15e6ba541ae0aa6912e434f6649b7b8",
            "0d9e30759676feb9670863bfdd8d0d3745db8d0654171dd4a029112757d328d2",
            "bbdaef78d8c4aa2ac65dbf5804e763308bc58c8ddd33f21fcdae1fe5cc0b61e2",
            "0d9e30759676feb9670863bfdd8d0d3745db8d0654171dd4a029112757d328d2",
            "23132bf07f9f170c9317c551912b1387e53714a28870602aa360de322a62392f",
            "22e32bec284d62c174fa7b49f36351879d608d29d2c447cc5de6bbf5aa0022e0",
            "f15659dfa88c484e2af8dc10f0d6536203e9f9abf835d86dd528dad9e713aeb9",
            "0d9e30759676feb9670863bfdd8d0d3745db8d0654171dd4a029112757d328d2",
            "23132bf07f9f170c9317c551912b1387e53714a28870602aa360de322a62392f",
            "b6481994060a809090217c47cef8fd4e6198e86d7c019b5c05712cc7310bb1a8",
        ]),
    },
    "los-perfect-float6": {
        0.0: ("208c000c2126475484b22e0ad51e34c21f8711cc295d79415fb4d61c82491ac8", 1856, []),
        8.0: ("3c201fcc57944f366adcdd55326510f691d6182cb9a7483153cba4b8455edba9", 10, []),
    },
    "los-perfect-float": {
        0.0: ("c673d8dee2ea5454128e972767585a3c4d8f635371bbc2affed4fce7bc12dae8", 1912, []),
        8.0: ("737296cf64b626a822fe7b6b6fc3279ab3221a18bd2e87d977931316b2a6872a", 8, []),
    },
    "los-ls-fixed6": {
        0.0: ("fc9db39392c06253fa82413251af7c296deda94e6ca3351f47d1445dc0d4eedb", 8247, [
            "3f609a994a25ce9ff9fdb39f9b67d5ef65895907abae0eab459d3d62a3445975",
            "5c801202938a7c101c885e6ea8996237002b8b2540f44411d48b58c77eeacace",
            "cc9c0c211757871d632415f4768b6e5d50e88c3530c938d762eb08addfd758a0",
            "5c801202938a7c101c885e6ea8996237002b8b2540f44411d48b58c77eeacace",
            "e159f85a052081db9462871cd67cf47e928af03d6f00c54226077771176663e5",
            "ff7b1ca919b5695dd597566a50eddbc44ca536c1b9a7989529fd9af58b4da45a",
            "fa6c3c295585f729a12e8ea691722918c260aef6a0e8acd2bfc07aee1abbac2b",
            "5c801202938a7c101c885e6ea8996237002b8b2540f44411d48b58c77eeacace",
            "828caa339066767e789a080849a0b953daf16e2ed398b4662da90a4dac6a8a6f",
            "7cf32e585585282f1b101e66e427234cbdc0aa0c3f38e20ac94cf37bb33c0698",
        ]),
        8.0: ("15380284a4bad018df5100a6ef0f53b9db9a84d9ba61bdd42f31e5898975af03", 317, [
            "fb893b9624a4e8af245944205f4d14f8223ffb04a05a92b5c1ffd13db2aba3cd",
            "ab72dd6e838e05e68a3fcb4421b03645a53371278f1b20ef01c53c4ce322e9dd",
            "98fe251d1aed359b0e371f6b9dae186b430d1d54cfd84c6c87948b75326320e3",
            "ab72dd6e838e05e68a3fcb4421b03645a53371278f1b20ef01c53c4ce322e9dd",
            "a7519f5d696f17c5e9084186b76d220f72e00e60885348003b6245e1cc93e941",
            "95d7c4db353fba82fe0c9568ed553d3d37276f8f241e27c5020cf8505d96ba0d",
            "46841484f5072de03506037620214f1bec3c6878753a96a89c9225973543113a",
            "ab72dd6e838e05e68a3fcb4421b03645a53371278f1b20ef01c53c4ce322e9dd",
            "a7519f5d696f17c5e9084186b76d220f72e00e60885348003b6245e1cc93e941",
            "a941cd898bc2215c7b2288897c08684017d9eb0117265e40590cd2425443e2a0",
        ]),
    },
    "los-ls-float6": {
        0.0: ("95bd9cb90c4a0eff0a4be4330df709668eb38e3dbb61220bf50182a47cba1ce8", 8266, []),
        8.0: ("6e0b7f5bdfd2717809019e5a8385f50c36d48405a681b659d396b1678d3fdfb6", 315, []),
    },
    "los-ls-float": {
        0.0: ("6d3ac1371800df72dc3840567970082b8a1e2ddad178b158af53de874582c479", 8271, []),
        8.0: ("1718e0a1bc4417899938acc4610a9bb9cf9c12b5267dcf142dff77b88324cf5c", 292, []),
    },
    "nlos-perfect-fixed6": {
        0.0: ("c4c8f42a82d0b40f5a53216ef8ed42f25678eb3f4d3c61f7e0620e7f723ed2de", 1877, [
            "994d382ba4671411dd136470524a4135f3fcaabf70328c8b7c0302e3cce78d08",
            "a1173d66752c958cc73410ad35e019dcc70098ce5339920e6321689c8f7c83c1",
            "6f202d7a93b4cbbff3e51a898abb4fca1bee5e30d9a996a5dbc4fbaca6d88a48",
            "a1173d66752c958cc73410ad35e019dcc70098ce5339920e6321689c8f7c83c1",
            "59708316df5dd81a37b27a13529375f0d323e7e835586471065032b70bd3eb17",
            "6b930513ee323379928f95bf4073fabe49b0ad68e04e86c7b0fdf97342ce5fcc",
            "a537d851b5273afe79f66f38caf51e107dd88089656dd4667f5837ffa5ea84e5",
            "a1173d66752c958cc73410ad35e019dcc70098ce5339920e6321689c8f7c83c1",
            "25bf35c55d0e289e65500e959c90df8d277f0b5cc08ecc0279a946d9a60042e8",
            "bc61f386f6a733c4d483d8a816f9d667406361c30b405d3f506af4614457d964",
        ]),
        8.0: ("6b5451e87d6ed4f69d254b48be4591e7f7b772ef0dfd0b54dfe1f41ba2bf28e8", 45, [
            "4f31794a8a63188cdfcb8695fb8fcbd33259523ec2a59cc0fcfdd0d270495a8b",
            "19aadf6edbe4184403a0a52844a55c153972e223bf72b2f88c858bc0cd2da585",
            "5a2eba970bf3534e6e19a63a075ee2c1a5d9690c060599f545d2665085d95773",
            "19aadf6edbe4184403a0a52844a55c153972e223bf72b2f88c858bc0cd2da585",
            "e36136fe98642ec302b46e20fb3d0854ee03796f928fd22722466bc484a8e852",
            "ee9f3751e8c8816011dd8624e7ce69811c76cfc3991b9a14662adc718cc05913",
            "bc2082af4b1a67d538602e301ccd4159d7ddc6d6eb7d8960c3f4cb19313213e6",
            "19aadf6edbe4184403a0a52844a55c153972e223bf72b2f88c858bc0cd2da585",
            "a7b1454257c7dabb7d6e263169f35192c19a4fe923f60124704246c97db21c0d",
            "1526db5b4337d32062c085ec8d6c39517fe09b172be2479c272699729831e617",
        ]),
    },
    "nlos-perfect-float6": {
        0.0: ("b4566413f822a1940cfd8b77bb2323ace30dd13fec5d85d2a1da7da386e4cad2", 1872, []),
        8.0: ("0640cd762b90922d62b5568a5eaf469b8bd879d42fad0d7df38421595e285abb", 45, []),
    },
    "nlos-perfect-float": {
        0.0: ("e9a166d789f0f4a458bad9d4469b72275223d5393fc65640711248a33743e335", 1868, []),
        8.0: ("4a0138242627d01dd6f84ea89db78b1774ec9687e70f741473ec60a0c670fb3e", 45, []),
    },
    "nlos-ls-fixed6": {
        0.0: ("bc47b35ae0953355ab9cd45f161c9beaac71821790a9cfbee8452d03d67fc7c2", 8441, [
            "378e59100538b933e5953982abf7d0420b2d2ac0cab0d19215cd3a0b07eb139b",
            "79cb86775040f010306ece52ffd4ab676e0160168c41981f09ef128027dcf51d",
            "e937b8decbad1bf21617bd84f1ec76c01981a9d83e0070954591b28f9b6736d8",
            "79cb86775040f010306ece52ffd4ab676e0160168c41981f09ef128027dcf51d",
            "6ebea89c1022e3e666e065d4715b5dc3a1de94d05f624aba960ac7802a8e0bc8",
            "4555e3ebd0f2d414bf54761d5912dd91e774bc306dae3814e85dac5e8c675b7b",
            "e63c4066e8b93c91e73f7766f53c4d12e32f0b213643d59cee8afe6f3156f808",
            "79cb86775040f010306ece52ffd4ab676e0160168c41981f09ef128027dcf51d",
            "c50d4cd5c2e3429fc7d4b4bb21271cc14e8a788f135b75cd07a26d8f7c095740",
            "821700c98c54fb088e01f487ad057fba8c381d38152007b49b37774ca3d8acce",
        ]),
        8.0: ("1488cdc80ea16f84a0cf5134bd17869c1267d296cab7531b9efc30f4262622b7", 1387, [
            "82aa2a187313e3581ea1325f59ad5c1cae0e84a4f112a7c292df62189390ff3c",
            "25813ce57985ea51f10bfc408574b44b201fe56d2372b52d3a95dfb94673f530",
            "e53c45185500d867975b2a4aa31424eb129f8afb2b4da340c5ce648a18709e91",
            "25813ce57985ea51f10bfc408574b44b201fe56d2372b52d3a95dfb94673f530",
            "b4ed0b31851385f9e1944fec0cbaefa4b37a63a02d476a2da64f1af73e72f023",
            "2019a958c541c5c3298204dc148699e2f2d4b94d1f5756a621f725524503ec9a",
            "cd00ba1681f3af488fe87a875aaab6942d81db4bc74b5fa23debb88ba4cce5e1",
            "25813ce57985ea51f10bfc408574b44b201fe56d2372b52d3a95dfb94673f530",
            "80b1071dee7adae40119b2f1102743a772efa7902c47d0c83867959f4f4a9620",
            "4df83090e297e818d8de4761a39aea65f1d575dfded74a7d5b952b5f63d99f24",
        ]),
    },
    "nlos-ls-float6": {
        0.0: ("b33f2acd9b0d63276d42eec90fb8b56c1f9df1a07f3d0b0eb619229a10d44f2d", 8430, []),
        8.0: ("62e535f93a40d9b9332e9f3b4ac987769053151006bfd903b55f7ad1b3a13117", 1398, []),
    },
    "nlos-ls-float": {
        0.0: ("41c0a1de23ee028aea4cb87f097d52f3fb158be0bb0cfa7586413b6111eba2e7", 8487, []),
        8.0: ("bfca651bad50853c8f2f9d8a1e63d3b9be5038f165103f5a77c11f51e3a208e6", 1232, []),
    },
}


@pytest.mark.parametrize("cell", list(GOLDEN))
def test_golden_matrix(cell, monkeypatch):
    assert _outputs(cell, monkeypatch) == GOLDEN[cell]
