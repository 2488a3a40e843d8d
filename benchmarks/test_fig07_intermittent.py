"""Figure 7: daily memory energy vs. wake-up frequency (the crossover)."""

from repro.studies import fefet_stt_crossover, intermittent_sweep
from repro.traffic import ALBERT, RESNET26
from repro.units import mb


def _run():
    image = intermittent_sweep(RESNET26, mb(2))
    nlp = intermittent_sweep(ALBERT, mb(32))
    return image, nlp


def test_fig07_wakeup_frequency_sweep(benchmark, print_table):
    image, nlp = benchmark.pedantic(_run, rounds=1, iterations=1)

    print_table(
        "Figure 7 (left): image classification, energy/day vs inferences/day",
        image, columns=("cell", "inferences_per_day", "energy_per_day_j"),
        limit=40,
    )
    print_table(
        "Figure 7 (right): ALBERT NLP, energy/day vs inferences/day",
        nlp, columns=("cell", "inferences_per_day", "energy_per_day_j"),
        limit=40,
    )

    # At very low rates the dense FeFET array's tiny sleep power wins; at
    # high rates STT's cheaper reads win.
    def winner_at(table, rate):
        rows = table.where(inferences_per_day=rate)
        return rows.min_by("energy_per_day_j")["tech"]

    assert winner_at(nlp, 1) == "FeFET"
    # At high rates a low-energy-per-access technology takes over (the paper
    # measures STT; our RRAM tentpole wins at 64 B access width — see
    # README.md, "Known deviations") and FeFET definitively loses.
    assert winner_at(nlp, 1e7) in {"STT", "RRAM"}
    assert winner_at(nlp, 1e7) != "FeFET"
    assert winner_at(image, 1) == "FeFET"

    # Crossover locations: both below ~1e5/day, with ALBERT crossing at a
    # lower rate than image classification because its per-inference access
    # count (layer-shared weight re-reads) is much larger.
    albert_cross = fefet_stt_crossover(ALBERT, mb(32))
    resnet_cross = fefet_stt_crossover(RESNET26, mb(2))
    print(f"\ncrossovers: ALBERT {albert_cross:,.0f}/day, "
          f"ResNet26 {resnet_cross:,.0f}/day")
    assert albert_cross < 1e5
    assert albert_cross < resnet_cross
