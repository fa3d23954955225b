// Production NLDM farm: every default cell kind at the standard corner
// set on the 5x5 slew x load grid, written out as sstvs_nldm.lib and
// checked against the Liberty structure validator. Exits non-zero when
// the library is invalid.
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/characterize.hpp"
#include "io/liberty_validate.hpp"
#include "io/liberty_writer.hpp"

int main() {
  using namespace vls;
  const std::vector<CharTable> tables = characterizeCells(CharRequest{});

  size_t points = 0;
  size_t holes = 0;
  for (const CharTable& t : tables) {
    points += t.points.size();
    holes += t.failures.size();
  }
  const std::string lib =
      writeLiberty(LibertyLibrarySpec{}, libertyCellsFromCharacterization(tables));
  std::ofstream("sstvs_nldm.lib") << lib;
  const LibertyValidation v = validateLiberty(lib);

  std::cout << "bench_characterization: " << tables.size() << " (cell, corner) tasks, " << points
            << " grid points, " << holes << " holes\n"
            << "sstvs_nldm.lib: " << v.summary() << "\n";
  return v.ok() ? 0 : 1;
}
