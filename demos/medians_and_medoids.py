"""Why the index is built from medians and medoids rather than means.

A single far-away point drags the mean of a cluster arbitrarily far,
but the spatial median and the medoid barely move.  This script plants
one gross outlier in a small 2-D blob and prints where each center
estimate lands, then computes the index for a clean two-blob layout.
"""

import numpy as np

from hdbwdm import Partition, bwdm, medoid, spatial_median

rng = np.random.default_rng(0)

blob = rng.normal(size=(30, 2))
contaminated = np.vstack([blob, [[250.0, -180.0]]])

print("clean blob of 30 points around the origin, plus one point at (250, -180)")
print(f"  mean            {np.round(contaminated.mean(axis=0), 2)}")
print(f"  spatial median  {np.round(spatial_median(contaminated), 2)}")
idx, row = medoid(contaminated)
print(f"  medoid          {np.round(row, 2)} (data row {idx})")
print("the mean is pulled several units toward the outlier; the robust")
print("centers stay inside the blob.\n")

# two tight blobs far apart: between-center distance is large relative
# to the average point-to-center distance, so the ratio is large
X = np.vstack([rng.normal(size=(25, 2)), rng.normal(size=(25, 2)) + 12.0])
labels = np.array([0] * 25 + [1] * 25)
part = Partition(labels=labels, alpha=0.0)

for kind in ("spatial-median", "medoid"):
    rep = bwdm(X, part, kind)
    print(
        f"{kind:15s} centers: between {rep.abdm:7.3f}  within {rep.awdm:6.3f}"
        f"  ratio {rep.bwdm:7.3f}"
    )
print("\nwell-separated tight clusters score high; the two center kinds agree")
print("closely because each blob is symmetric.")
