"""Reference dataset writer: the original row-at-a-time csv.writer loop.

write_dataset formats its rows in chunks with str.format; tests compare its
bytes with this one's.
"""

import csv
import io

from drlearn.eucsim import DATASET_HEADER, TimeSeriesDataset


def dataset_csv(dataset: TimeSeriesDataset) -> str:
    """The text write_dataset writes for dataset, one csv.writer row per hour."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(DATASET_HEADER)
    for t in range(len(dataset)):
        writer.writerow(
            [t, int(dataset.hours[t]), repr(float(dataset.prices[t])), repr(float(dataset.consumptions[t]))]
        )
    return buffer.getvalue()
