#include "metrics/series.hpp"

#include <cmath>
#include <sstream>

#include "core/check.hpp"
#include "metrics/table.hpp"

namespace mci::metrics {

std::string FigureData::toTable(int yPrecision) const {
  std::vector<std::string> headers{xLabel};
  for (const Series& s : series) headers.push_back(s.name);
  Table t(std::move(headers));
  // Integral axes (database size, bandwidth) print clean; fractional ones
  // (disconnection probability) keep a decimal.
  int xPrecision = 0;
  for (double x : xs) {
    if (std::abs(x - std::round(x)) > 1e-9) xPrecision = 1;
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    std::vector<std::string> row{Table::fmt(xs[i], xPrecision)};
    for (const Series& s : series) {
      MCI_DCHECK(s.ys.size() == xs.size());
      std::string cell = Table::fmt(s.ys[i], yPrecision);
      if (!s.sds.empty()) {
        cell += "+-" + Table::fmt(s.sds[i], yPrecision);
      }
      row.push_back(std::move(cell));
    }
    t.addRow(std::move(row));
  }
  std::ostringstream os;
  os << "# " << title << '\n';
  if (!subtitle.empty()) os << "# " << subtitle << '\n';
  os << "# y: " << yLabel << '\n' << t.str();
  return os.str();
}

std::string FigureData::toCsv() const {
  std::ostringstream os;
  os << xLabel;
  for (const Series& s : series) {
    os << ',' << s.name;
    if (!s.sds.empty()) os << ',' << s.name << " sd";
  }
  os << '\n';
  for (std::size_t i = 0; i < xs.size(); ++i) {
    os << xs[i];
    for (const Series& s : series) {
      os << ',' << s.ys[i];
      if (!s.sds.empty()) os << ',' << s.sds[i];
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace mci::metrics
