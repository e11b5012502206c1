// A miniature of the paper's §5 evaluation campaign, driven by the batch
// orchestrator: both algorithms, several matrix sizes, several rank counts
// and all three load layouts, each job repeated and measured through the
// white-box monitor. Results land in a content-addressed result store, so
// an interrupted campaign resumes where it stopped, and the CSV/markdown
// reports are derived from the store alone (docs/campaign.md).
//
//   ./energy_campaign [--reps 2] [--store campaign_store] [--workers 2]
#include <iostream>

#include "batch/campaign.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/units.hpp"

int main(int argc, char** argv) {
  using namespace plin;
  const CliArgs args(argc, argv);
  try {
    args.require_known({"reps", "store", "workers", "help"});
  } catch (const plin::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  if (args.get_bool("help", false)) {
    std::cout << "energy_campaign — miniature §5 campaign on the batch "
                 "orchestrator\n\n"
                 "  --reps N     repetitions per job (default 2)\n"
                 "  --store DIR  result store directory (default "
                 "campaign_store)\n"
                 "  --workers N  host worker threads (default 2)\n"
                 "  --help       this text\n";
    return 0;
  }

  // The miniature sweep: sizes and rank counts scaled to the container,
  // same structure as the paper's (4 sizes x 3 rank counts x 3 layouts).
  const int reps = static_cast<int>(args.get_int("reps", 2));
  batch::CampaignManifest manifest = batch::parse_manifest(
      "campaign energy-campaign-mini\n"
      "tier     numeric\n"
      "machine  mini:16x4\n"
      "reps     " + std::to_string(reps) + "\n"
      "grid algorithm ime scalapack\n"
      "grid n         256 384 512\n"
      "grid ranks     8 16\n"
      "grid layout    full half1 half2\n"
      "grid nb        32\n");
  manifest.workers = static_cast<int>(args.get_int("workers", 2));

  batch::CampaignOptions options;
  options.store_dir = args.get("store", "campaign_store");

  try {
    const batch::CampaignResult result =
        batch::run_campaign(manifest, options);

    std::cout << "\nCampaign results (" << result.records.size()
              << " jobs x " << reps
              << " repetitions, numeric tier; " << result.outcome.executed
              << " executed now, " << result.outcome.cached
              << " served from the store)\n\n";
    batch::print_report_table(std::cout, result.records);
    std::cout << "\nReports written to " << result.csv_path << " and "
              << result.markdown_path << "\n";

    // Quick take-aways, mirroring §5.4.
    double ime_j = 0.0;
    double sca_j = 0.0;
    for (const batch::JobRecord& record : result.records) {
      double total = 0.0;
      for (const batch::RepetitionRecord& rep : record.repetitions) {
        total += rep.total_j();
      }
      total /= static_cast<double>(record.repetitions.size());
      if (record.spec.algorithm == perfsim::Algorithm::kIme) {
        ime_j += total;
      } else {
        sca_j += total;
      }
    }
    std::cout << "\nTotal energy across the campaign: IMe "
              << format_energy(ime_j) << " vs ScaLAPACK "
              << format_energy(sca_j) << " ("
              << format_fixed(100.0 * (ime_j / sca_j - 1.0), 1)
              << "% more for IMe).\n";
    return result.outcome.failures.empty() ? 0 : 1;
  } catch (const plin::Error& error) {
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
}
